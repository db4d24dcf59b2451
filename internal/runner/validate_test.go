package runner

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/policy"
	"dare/internal/workload"
)

// TestPolicyValidate runs every out-of-range policy value through each
// entry point that can spell it — Options.Policy, a policy file and
// dare-sim's flag resolution — and wants the same *core.ConfigError,
// naming the field, before the run logs a byte. JSON cannot spell NaN or
// ±Inf, and dare-sim has flags only for the kind, p, threshold and
// budget, so a row leaves out the routes that cannot express it.
func TestPolicyValidate(t *testing.T) {
	type flagArgs struct {
		name      string
		p         float64
		threshold int64
		budget    float64
	}
	def := core.DefaultConfig() // the dare-sim flag defaults
	with := func(kind core.PolicyKind, edit func(*core.Config)) core.Config {
		cfg := PolicyFor(kind)
		edit(&cfg)
		return cfg
	}
	flags := func(name string, edit func(*flagArgs)) *flagArgs {
		f := &flagArgs{name, def.P, def.Threshold, def.BudgetFraction}
		edit(f)
		return f
	}
	et, scarlett := core.ElephantTrapPolicy, core.ScarlettPolicy
	// rules sets the override rule sets a slot the kind never runs.
	rules := func(kind core.PolicyKind, rs policy.RuleSet) core.Config {
		return with(kind, func(c *core.Config) { c.Rules = &rs })
	}
	deny := &policy.RuleSpec{Rule: "deny"}
	for _, row := range []struct {
		name, field string
		cfg         core.Config
		file        string    // "" when JSON cannot spell the value
		flags       *flagArgs // nil when dare-sim has no flag for the field
	}{
		{"p negative", "p", with(et, func(c *core.Config) { c.P = -0.1 }),
			`{"kind": "et", "p": -0.1}`, flags("et", func(f *flagArgs) { f.p = -0.1 })},
		{"p above 1", "p", with(et, func(c *core.Config) { c.P = 1.5 }),
			`{"kind": "et", "p": 1.5}`, flags("et", func(f *flagArgs) { f.p = 1.5 })},
		{"p NaN", "p", with(et, func(c *core.Config) { c.P = math.NaN() }),
			"", flags("et", func(f *flagArgs) { f.p = math.NaN() })},
		{"threshold negative", "threshold", with(et, func(c *core.Config) { c.Threshold = -1 }),
			`{"kind": "et", "threshold": -1}`, flags("et", func(f *flagArgs) { f.threshold = -1 })},
		{"budget negative", "budgetFraction", with(et, func(c *core.Config) { c.BudgetFraction = -0.5 }),
			`{"kind": "lru", "budget": -0.5}`, flags("lru", func(f *flagArgs) { f.budget = -0.5 })},
		{"budget infinite", "budgetFraction", with(et, func(c *core.Config) { c.BudgetFraction = math.Inf(1) }),
			"", flags("lru", func(f *flagArgs) { f.budget = math.Inf(1) })},
		{"announce delay negative", "announceDelay", with(et, func(c *core.Config) { c.AnnounceDelay = -1 }),
			`{"kind": "et", "announceDelay": -1}`, nil},
		{"lazy delete delay negative", "lazyDeleteDelay", with(et, func(c *core.Config) { c.LazyDeleteDelay = -1 }),
			`{"kind": "et", "lazyDeleteDelay": -1}`, nil},
		{"epoch negative", "epoch", with(scarlett, func(c *core.Config) { c.Epoch = -1 }),
			`{"kind": "scarlett", "epoch": -1}`, nil},
		{"quota negative", "accessesPerReplica", with(scarlett, func(c *core.Config) { c.AccessesPerReplica = -1 }),
			`{"kind": "scarlett", "accessesPerReplica": -1}`, nil},
		{"cap negative", "maxExtraReplicas", with(scarlett, func(c *core.Config) { c.MaxExtraReplicas = -1 }),
			`{"kind": "scarlett", "maxExtraReplicas": -1}`, nil},
		{"unknown kind", "kind", with(et, func(c *core.Config) { c.Kind = 99 }),
			`{"kind": "zzz"}`, flags("zzz", func(*flagArgs) {})},
		{"uncompilable rules", "rules", with(et, func(c *core.Config) {
			c.Rules = &policy.RuleSet{Admit: &policy.RuleSpec{Rule: "nope"}}
		}), `{"kind": "et", "replication": {"admit": {"rule": "nope"}}}`, nil},
		{"lru aged rule", "rules", rules(core.GreedyLRUPolicy, policy.RuleSet{Aged: deny}),
			`{"kind": "lru", "replication": {"aged": {"rule": "deny"}}}`, nil},
		{"lfu aged rule", "rules", rules(core.GreedyLFUPolicy, policy.RuleSet{Aged: deny}),
			`{"kind": "lfu", "replication": {"aged": {"rule": "deny"}}}`, nil},
		{"vanilla admit rule", "rules", rules(core.NonePolicy, policy.RuleSet{Admit: &policy.RuleSpec{Rule: "allow"}}),
			`{"kind": "vanilla", "replication": {"admit": {"rule": "allow"}}}`, nil},
		{"scarlett victim rule", "rules", rules(scarlett, policy.RuleSet{Victim: deny}),
			`{"kind": "scarlett", "replication": {"victim": {"rule": "deny"}}}`, nil},
	} {
		// check runs one route: resolve builds the Options (or fails
		// first, as a file's unknown kind does at load), then the run.
		check := func(route string, resolve func() (Options, error)) {
			t.Helper()
			var log bytes.Buffer
			opts, err := resolve()
			if err == nil {
				opts.Profile, opts.Workload, opts.Scheduler, opts.Seed = config.CCT(), workload.WL1(testSeed), "fifo", testSeed
				opts.EventLog = &log
				var out *Output
				if out, err = Run(opts); out != nil {
					t.Errorf("%s via %s: ran", row.name, route)
				}
			}
			var ce *core.ConfigError
			if !errors.As(err, &ce) || ce.Field != row.field {
				t.Errorf("%s via %s: err %v, want a *core.ConfigError on %q", row.name, route, err, row.field)
			}
			if log.Len() != 0 {
				t.Errorf("%s via %s: the event log holds %d bytes", row.name, route, log.Len())
			}
		}
		check("Options.Policy", func() (Options, error) { return Options{Policy: row.cfg}, nil })
		if row.file != "" {
			check("policy file", func() (Options, error) {
				path := filepath.Join(t.TempDir(), "policy.json")
				if err := os.WriteFile(path, []byte(row.file), 0o644); err != nil {
					t.Fatal(err)
				}
				set, err := config.LoadPolicy(path)
				return Options{PolicySet: set}, err
			})
		}
		if f := row.flags; f != nil {
			check("dare-sim flags", func() (Options, error) {
				cfg, err := FlagPolicy(f.name, f.p, f.threshold, f.budget)
				return Options{Policy: cfg}, err
			})
		}
	}
}

// TestPolicyValidateAcceptsBuiltins: every built-in config, built-in arm
// and committed configs/*.json passes the range check.
func TestPolicyValidateAcceptsBuiltins(t *testing.T) {
	for _, kind := range []core.PolicyKind{
		core.NonePolicy, core.GreedyLRUPolicy, core.GreedyLFUPolicy,
		core.ElephantTrapPolicy, core.ScarlettPolicy,
	} {
		if err := PolicyFor(kind).Validate(); err != nil {
			t.Errorf("PolicyFor(%s): %v", kind, err)
		}
		set, err := config.BuiltinPolicy(kind.String())
		if err != nil {
			t.Fatal(err)
		}
		validSet(t, "BuiltinPolicy("+kind.String()+")", set)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("configs/*.json: %v, %d files", err, len(paths))
	}
	for _, path := range paths {
		set, err := config.LoadPolicy(path)
		if err != nil {
			t.Fatal(err)
		}
		validSet(t, path, set)
	}
	// Zero is in range everywhere: fig9a sweeps the budget from 0.
	if err := (core.Config{Kind: core.ElephantTrapPolicy}).Validate(); err != nil {
		t.Errorf("all-zero ElephantTrap config: %v", err)
	}
}

func validSet(t *testing.T, what string, set *config.PolicySet) {
	t.Helper()
	cfg, err := core.ConfigFromSpec(set.PolicySpec)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestBadTimesAreErrors runs a negative or NaN time through every planned
// fault class, a NaN master downtime, and stream windows and horizons
// that are not positive, and wants an error naming the value. None may
// panic or leave the run unbounded.
func TestBadTimesAreErrors(t *testing.T) {
	nan := math.NaN()
	for _, row := range []struct {
		name   string
		edit   func(*Options)
		stream func(*StreamRunSpec) // nil runs the batch driver
		want   string
	}{
		{"failure at -1", func(o *Options) { o.Failures = []NodeFailure{{Node: 0, At: -1}} }, nil,
			"failure scheduled at invalid time -1"},
		{"failure at NaN", func(o *Options) { o.Failures = []NodeFailure{{Node: 0, At: nan}} }, nil,
			"failure scheduled at invalid time NaN"},
		{"recovery at -1", func(o *Options) { o.Recoveries = []NodeRecovery{{Node: 0, At: -1}} }, nil,
			"recovery scheduled at invalid time -1"},
		{"recovery at NaN", func(o *Options) { o.Recoveries = []NodeRecovery{{Node: 0, At: nan}} }, nil,
			"recovery scheduled at invalid time NaN"},
		{"rack failure at -1", func(o *Options) { o.RackFailures = []RackFailure{{Rack: 0, At: -1}} }, nil,
			"rack failure scheduled at invalid time -1"},
		{"rack failure at NaN", func(o *Options) { o.RackFailures = []RackFailure{{Rack: 0, At: nan}} }, nil,
			"rack failure scheduled at invalid time NaN"},
		{"master outage at -1", func(o *Options) { o.MasterOutages = []MasterOutage{{At: -1, Down: 5}} }, nil,
			"master outage scheduled at invalid time -1"},
		{"master outage at NaN", func(o *Options) { o.MasterOutages = []MasterOutage{{At: nan, Down: 5}} }, nil,
			"master outage scheduled at invalid time NaN"},
		{"master downtime NaN", func(o *Options) { o.MasterOutages = []MasterOutage{{At: 5, Down: nan}} }, nil,
			"master outage downtime NaN must be > 0"},
		{"stream window NaN", nil, func(s *StreamRunSpec) { s.Window = nan },
			"stream Window must be positive and finite, got NaN"},
		{"stream window +Inf", nil, func(s *StreamRunSpec) { s.Window = math.Inf(1) },
			"stream Window must be positive and finite, got +Inf"},
		{"stream horizon NaN", nil, func(s *StreamRunSpec) { s.Horizon = nan },
			"stream Horizon must be >= 0, got NaN"},
		{"stream horizon -5", nil, func(s *StreamRunSpec) { s.Horizon = -5 },
			"stream Horizon must be >= 0, got -5"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var err error
			if row.stream != nil {
				spec := streamSpec()
				row.stream(&spec)
				_, err = RunStream(streamOpts(), spec, nil, CheckpointSpec{})
			} else {
				opts := Options{
					Profile:   config.CCT(),
					Workload:  truncate(workload.WL1(testSeed), 20),
					Scheduler: "fifo",
					Policy:    PolicyFor(core.ElephantTrapPolicy),
					Seed:      testSeed,
				}
				row.edit(&opts)
				_, err = Run(opts)
			}
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("got %v, want an error containing %q", err, row.want)
			}
		})
	}
}

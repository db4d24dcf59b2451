package mapreduce

import (
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/snapshot"
	"dare/internal/stats"
)

// DefaultMaxTaskAttempts mirrors Hadoop's mapred.map.max.attempts: a map
// input whose attempts fail this many times fails its whole job.
const DefaultMaxTaskAttempts = 4

// DefaultBlacklistAfter is the per-node failed-attempt count at which the
// job tracker stops scheduling on a node until it re-registers.
const DefaultBlacklistAfter = 3

// failureHandler owns task-attempt robustness: attempt limits,
// exponential retry backoff, per-node failure accounting, and the
// tasktracker blacklist. It subscribes to the cluster bus — TaskFail
// events drive blame and requeueing, NodeRecover forgives the blacklist —
// instead of being welded into the tracker's execution path.
type failureHandler struct {
	t *Tracker

	maxTaskAttempts  int
	blacklistAfter   int
	nodeTaskFailures []int
	taskFailProb     float64
	taskFailG        *stats.RNG

	// Declarative gates. Both compile lazily: the built-in blacklist gate
	// is node_failures >= blacklistAfter and the built-in job-fail gate is
	// attempts >= maxTaskAttempts, so the rules always reflect the latest
	// Set{BlacklistAfter,MaxTaskAttempts} values. A config-file blacklist
	// spec compiles once per node (stateful rules like ratewindow must not
	// share their burst history across nodes), seeded from blacklistRNG.
	blacklistSpec  *policy.RuleSpec
	blacklistRNG   *stats.RNG
	blacklistRules []policy.Rule
	failRule       policy.Rule
	failRuleCustom bool
	ctx            faultCtx
}

// faultCtx exposes failure-accounting signals to the gates:
// "node_failures" (failed attempts blamed on the node since its last
// recovery), "attempts" (attempts burned by the task input), and "now".
type faultCtx struct {
	failures float64
	attempts float64
	now      float64

	hasFailures bool
	hasAttempts bool
}

// Val implements policy.Context.
func (c *faultCtx) Val(key string) (float64, bool) {
	switch key {
	case "node_failures":
		return c.failures, c.hasFailures
	case "attempts":
		return c.attempts, c.hasAttempts
	case "now":
		return c.now, true
	}
	return 0, false
}

func newFailureHandler(t *Tracker) *failureHandler {
	return &failureHandler{
		t:                t,
		maxTaskAttempts:  DefaultMaxTaskAttempts,
		blacklistAfter:   DefaultBlacklistAfter,
		nodeTaskFailures: make([]int, len(t.c.Nodes)),
	}
}

// Kinds implements event.KindFilter.
func (h *failureHandler) Kinds() []event.Kind {
	return []event.Kind{event.TaskFail, event.NodeRecover}
}

// HandleEvent implements event.Subscriber.
//
// TaskFail carries two independent verdicts: Flag=true blames the node
// that ran the attempt (flaky-disk/JVM injection — node deaths are not the
// node's "fault" in blacklist terms, matching Hadoop), and Aux=1 means no
// sibling attempt survives so the input must be requeued (or the job
// failed, past the attempt limit).
func (h *failureHandler) HandleEvent(ev event.Event) {
	switch ev.Kind {
	case event.TaskFail:
		if ev.Flag {
			h.noteNodeTaskFailure(h.t.c.Nodes[ev.Node])
		}
		if ev.Aux == 1 {
			if j := h.t.jobByID[ev.Job]; j != nil {
				h.requeueOrFail(j, dfs.BlockID(ev.Block))
			}
		}
	case event.NodeRecover:
		// Re-registration forgives the blacklist, as in Hadoop.
		h.t.c.setBlacklisted(h.t.c.Nodes[ev.Node], false)
		h.nodeTaskFailures[ev.Node] = 0
	}
}

// injectedFailure draws the flaky-task coin. p = 0 (the default) draws
// nothing, leaving existing runs bit-identical.
func (h *failureHandler) injectedFailure() bool {
	return h.taskFailProb > 0 && h.taskFailG.Float64() < h.taskFailProb
}

// requeueOrFail puts a killed/failed map input back in the pending set
// with exponential backoff, or fails its job once the block has burned
// maxTaskAttempts attempts.
func (h *failureHandler) requeueOrFail(j *Job, b dfs.BlockID) {
	if j.finished {
		return
	}
	if j.attempts == nil {
		j.attempts = make(map[dfs.BlockID]int)
	}
	j.attempts[b]++
	n := j.attempts[b]
	if h.maxTaskAttempts > 0 {
		h.ctx.failures, h.ctx.hasFailures = 0, false
		h.ctx.attempts, h.ctx.hasAttempts = float64(n), true
		h.ctx.now = h.t.c.Eng.Now()
		if h.failJobRule().Eval(&h.ctx) {
			h.failJob(j)
			return
		}
	}
	// Exponential backoff in heartbeat units: 1, 2, 4, ... intervals. The
	// first retry waits one interval — the killed attempt's slot report
	// would not reach the job tracker sooner anyway.
	backoff := h.t.c.Profile.HeartbeatInterval * float64(int64(1)<<uint(n-1))
	h.t.after(backoff, &requeueTag{job: j.Spec.ID, b: b})
}

// requeueTag puts a map input back in its job's pending set once its
// backoff has passed. A job that finished meanwhile has left jobByID,
// and the requeue is dropped.
type requeueTag struct {
	job int
	b   dfs.BlockID
}

func (r *requeueTag) TagKind() uint16 { return TagRequeue }
func (r *requeueTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &r.job)
	snapshot.Int(w, &r.b)
}
func (r *requeueTag) check(*Tracker) error { return nil }

func (r *requeueTag) fire(t *Tracker) {
	if j := t.jobByID[int32(r.job)]; j != nil {
		j.Requeue(r.b)
	}
}

// failJob terminates a job whose task exhausted its attempts: Hadoop fails
// the job rather than retrying forever. The job leaves the scheduler and
// reports a failed Result stamped at the failure time.
func (h *failureHandler) failJob(j *Job) {
	if j.finished {
		return
	}
	j.failed = true
	h.t.finishJob(j)
}

// noteNodeTaskFailure counts one failed attempt against node and
// blacklists it when the gate fires — unless that would leave the
// scheduler no usable node at all.
func (h *failureHandler) noteNodeTaskFailure(node *Node) {
	if h.blacklistAfter <= 0 || !node.Up {
		return
	}
	// Count the failure even on an already-blacklisted node (its in-flight
	// attempts can still fail after the verdict): the counter must match
	// the journaled blame ledger record for record, and NodeRecover resets
	// both together.
	h.nodeTaskFailures[node.ID]++
	// The gate is evaluated even for blacklisted nodes so stateful rules
	// (e.g. a failure-burst ratewindow) observe every failure.
	h.ctx.failures, h.ctx.hasFailures = float64(h.nodeTaskFailures[node.ID]), true
	h.ctx.attempts, h.ctx.hasAttempts = 0, false
	h.ctx.now = h.t.c.Eng.Now()
	fired := h.blacklistRule(int(node.ID)).Eval(&h.ctx)
	if node.Blacklisted || !fired {
		return
	}
	usable := 0
	for _, n := range h.t.c.Nodes {
		if n.Up && !n.Blacklisted {
			usable++
		}
	}
	if usable <= 1 {
		return // never blacklist the last schedulable node
	}
	h.t.c.setBlacklisted(node, true)
}

// failJobRule returns the job-fail gate, compiling the built-in from the
// current maxTaskAttempts when no custom rule is set.
func (h *failureHandler) failJobRule() policy.Rule {
	if h.failRule == nil {
		rule, err := policy.DefaultFailJob(h.maxTaskAttempts).Compile(0)
		if err != nil {
			panic("mapreduce: built-in fail-job rule: " + err.Error())
		}
		h.failRule = rule
	}
	return h.failRule
}

// blacklistRule returns node's blacklist gate, compiling it on first use.
func (h *failureHandler) blacklistRule(node int) policy.Rule {
	if h.blacklistRules == nil {
		h.blacklistRules = make([]policy.Rule, len(h.nodeTaskFailures))
	}
	if h.blacklistRules[node] == nil {
		spec := h.blacklistSpec
		if spec == nil {
			spec = policy.DefaultBlacklist(h.blacklistAfter)
		}
		rng := stats.NewRNG(0)
		if h.blacklistRNG != nil {
			rng = h.blacklistRNG.Split(uint64(node) + 1)
		}
		rule, err := spec.CompileWith(rng)
		if err != nil {
			// Config specs are validated at load time; fall back defensively.
			rule, _ = policy.DefaultBlacklist(h.blacklistAfter).Compile(0)
		}
		h.blacklistRules[node] = rule
	}
	return h.blacklistRules[node]
}

// SetMaxTaskAttempts overrides the per-task attempt limit (<= 0 retries
// forever). Call before Run.
func (t *Tracker) SetMaxTaskAttempts(n int) {
	t.faults.maxTaskAttempts = n
	if !t.faults.failRuleCustom {
		t.faults.failRule = nil // recompile the built-in from the new limit
	}
}

// SetBlacklistAfter overrides the per-node failed-attempt threshold for
// blacklisting (<= 0 disables blacklisting). Call before Run.
func (t *Tracker) SetBlacklistAfter(k int) {
	t.faults.blacklistAfter = k
	if t.faults.blacklistSpec == nil {
		t.faults.blacklistRules = nil // recompile built-ins from the new threshold
	}
}

// SetBlacklistRuleSpec replaces the node-blacklist gate with a config
// rule. The spec compiles once per node (stateful rules keep per-node
// state), seeded from rng substreams. Call before Run.
func (t *Tracker) SetBlacklistRuleSpec(spec *policy.RuleSpec, rng *stats.RNG) {
	t.faults.blacklistSpec = spec
	t.faults.blacklistRNG = rng
	t.faults.blacklistRules = nil
}

// SetFailJobRule replaces the attempt-limit job-fail gate with a
// compiled config rule. The native maxTaskAttempts > 0 guard still
// applies: <= 0 disables job failing entirely. Call before Run.
func (t *Tracker) SetFailJobRule(r policy.Rule) {
	t.faults.failRule = r
	t.faults.failRuleCustom = r != nil
}

// SetTaskFailureInjection makes each map attempt fail on completion with
// probability p, drawn from rng — the deterministic stand-in for flaky
// disks/JVMs that exercises retry, backoff, and blacklisting on *up*
// nodes. p = 0 (the default) draws nothing, leaving existing runs
// bit-identical. Call before Run.
func (t *Tracker) SetTaskFailureInjection(p float64, rng *stats.RNG) {
	t.faults.taskFailProb = p
	t.faults.taskFailG = rng
}

// Blacklisted reports how many nodes are currently blacklisted.
func (t *Tracker) Blacklisted() int { return t.c.blacklisted }

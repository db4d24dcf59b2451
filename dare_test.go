package dare

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	out, err := Run(Options{
		Profile:   CCT(),
		Workload:  WL1(42),
		Scheduler: "fifo",
		Policy:    DefaultPolicy(),
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Jobs != 500 {
		t.Fatalf("jobs %d", out.Summary.Jobs)
	}
	if out.Summary.JobLocality <= 0 || out.Summary.JobLocality > 1 {
		t.Fatalf("locality %v", out.Summary.JobLocality)
	}
	if out.PolicyStats.ReplicasCreated == 0 {
		t.Fatal("DARE created no replicas")
	}
}

func TestFacadeProfilesAndPolicies(t *testing.T) {
	if CCT().Name != "CCT" || EC2().Name != "EC2" || EC2Small().Name != "EC2-20" {
		t.Fatal("profile names wrong")
	}
	if !strings.Contains(TableIII(CCT(), EC2()), "1 master, 19 slaves") {
		t.Fatal("Table III missing CCT row")
	}
	if DefaultPolicy().Kind != ElephantTrap {
		t.Fatal("default policy should be ElephantTrap")
	}
	if PolicyFor(GreedyLRU).Kind != GreedyLRU {
		t.Fatal("PolicyFor wrong")
	}
	if k, err := ParsePolicyKind("lru"); err != nil || k != GreedyLRU {
		t.Fatal("ParsePolicyKind wrong")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if wl := WL1(1); wl.Name != "wl1" || len(wl.Jobs) != 500 {
		t.Fatal("WL1 wrong")
	}
	if wl := WL2(1); wl.Name != "wl2" {
		t.Fatal("WL2 wrong")
	}
	if wl := GenerateWorkload(WorkloadConfig{NumJobs: 10, Seed: 1}); len(wl.Jobs) != 10 {
		t.Fatal("GenerateWorkload wrong")
	}
	pts := Fig6Points(120, 0)
	if len(pts) != 120 || pts[119].P != 1 {
		t.Fatal("Fig6Points wrong")
	}
}

func TestFacadeEnvironmentProbes(t *testing.T) {
	if !strings.Contains(TableI(1, 1, CCT()), "CCT") {
		t.Fatal("TableI missing CCT")
	}
	if !strings.Contains(TableII(5, 1, EC2()), "EC2 disk bandwidth") {
		t.Fatal("TableII missing EC2")
	}
	if !strings.Contains(Fig1(EC2Small(), 1), "Hop count") {
		t.Fatal("Fig1 missing header")
	}
	if r := BandwidthRatio(CCT(), 50, 1); r <= 0 || r >= 1 {
		t.Fatalf("CCT bandwidth ratio %v", r)
	}
}

func TestFacadeAuditLog(t *testing.T) {
	l := GenerateAuditLog(AuditLogConfig{Files: 100, Accesses: 5000, Seed: 3})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if ranks := Fig2Ranks(l); len(ranks) == 0 {
		t.Fatal("no ranks")
	}
	if cdf := Fig3AgeCDF(l); cdf.N() != 5000 {
		t.Fatal("age CDF size wrong")
	}
	if _, err := Fig4Windows(l); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig5Windows(l); err != nil {
		t.Fatal(err)
	}
}

// runExperiment runs the registry entry id at a tiny scale.
func runExperiment(t *testing.T, id string, jobs int, seed uint64) *Table {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			tbl, err := e.Run(ExperimentParams{Jobs: jobs, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl.Render() == "" {
				t.Fatalf("%s: empty rendering", id)
			}
			return tbl
		}
	}
	t.Fatalf("experiment %q not in the registry", id)
	return nil
}

func TestFacadeExperimentDriversSmall(t *testing.T) {
	// Tiny versions of each paper artifact; full-scale checks live in
	// internal/runner.
	for _, c := range []struct {
		id   string
		rows int
	}{{"fig7", 12}, {"fig11", 11}, {"ablation-writes", 2}} {
		if tbl := runExperiment(t, c.id, 40, 7); len(tbl.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.id, len(tbl.Rows), c.rows)
		}
	}
}

func TestFacadeExtensionExperiments(t *testing.T) {
	// Scaled-down smoke of the extension studies in the registry.
	for _, c := range []struct {
		id   string
		jobs int
		rows int
	}{{"adaptation", 60, 3}, {"availability", 60, 3}, {"speculation", 40, 4}} {
		if tbl := runExperiment(t, c.id, c.jobs, 11); len(tbl.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.id, len(tbl.Rows), c.rows)
		}
	}
}

func TestFacadeScarlettPolicy(t *testing.T) {
	if Scarlett.String() != "scarlett" {
		t.Fatal("Scarlett kind wrong")
	}
	if p := PolicyFor(Scarlett); p.Kind != Scarlett || p.Epoch <= 0 {
		t.Fatalf("Scarlett policy config %+v", p)
	}
	wl := WL2(11)
	wl.Jobs = wl.Jobs[:80]
	out, err := Run(Options{Profile: CCT(), Workload: wl, Scheduler: "fifo", Policy: PolicyFor(Scarlett), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if out.PolicyName != "scarlett" || out.ExtraNetworkBytes == 0 {
		t.Fatalf("scarlett run: name=%q extraNet=%d", out.PolicyName, out.ExtraNetworkBytes)
	}
}

func TestFacadeAuditLogRoundTrip(t *testing.T) {
	l := GenerateAuditLog(AuditLogConfig{Files: 30, Accesses: 500, Seed: 12})
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuditLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Accesses) != 500 {
		t.Fatal("round trip lost accesses")
	}
}

func TestFacadeWorkloadRoundTrip(t *testing.T) {
	wl := WL1(13)
	var buf bytes.Buffer
	if err := wl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(wl.Jobs) {
		t.Fatal("round trip lost jobs")
	}
}

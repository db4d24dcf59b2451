package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
	"dare/internal/workload"
)

// refFair is the reference fair scheduler for
// TestFairOrderMatchesStableSort: every offer stable-sorts every
// registered job with sort.SliceStable, then skips the ones with nothing
// pending.
type refFair struct {
	maxSkips, rackSkips int

	jobs     []*mapreduce.Job
	skips    map[*mapreduce.Job]int
	scratch  []*mapreduce.Job
	poolLoad map[string]int
}

func newRefFair(d1, d2 int) *refFair {
	return &refFair{maxSkips: d1, rackSkips: d2, skips: make(map[*mapreduce.Job]int), poolLoad: make(map[string]int)}
}

func (s *refFair) Name() string { return "fair" }

func (s *refFair) AddJob(j *mapreduce.Job) {
	s.jobs = append(s.jobs, j)
	s.skips[j] = 0
}

func (s *refFair) RemoveJob(j *mapreduce.Job) {
	for i, cur := range s.jobs {
		if cur == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	delete(s.skips, j)
}

func (s *refFair) Skips(j *mapreduce.Job) int { return s.skips[j] }

func (s *refFair) fairOrder() []*mapreduce.Job {
	s.scratch = append(s.scratch[:0], s.jobs...)
	clear(s.poolLoad)
	multiPool := false
	for _, j := range s.jobs {
		s.poolLoad[j.Spec.Pool] += j.RunningMaps()
		if j.Spec.Pool != s.jobs[0].Spec.Pool {
			multiPool = true
		}
	}
	sort.SliceStable(s.scratch, func(a, b int) bool {
		ja, jb := s.scratch[a], s.scratch[b]
		if multiPool && ja.Spec.Pool != jb.Spec.Pool {
			la, lb := s.poolLoad[ja.Spec.Pool], s.poolLoad[jb.Spec.Pool]
			if la != lb {
				return la < lb
			}
			return ja.Spec.Pool < jb.Spec.Pool
		}
		return ja.RunningMaps() < jb.RunningMaps()
	})
	return s.scratch
}

func (s *refFair) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	for _, j := range s.fairOrder() {
		if j.PendingMaps() == 0 {
			continue
		}
		if b, ok := j.TakeLocalBlock(node); ok {
			s.skips[j] = 0
			return j, b, true
		}
		if s.skips[j] >= s.maxSkips {
			if b, ok := j.TakeRackLocalBlock(node); ok {
				s.skips[j] = 0
				return j, b, true
			}
			if s.skips[j] >= s.maxSkips+s.rackSkips {
				if b, ok := j.TakeAnyBlock(); ok {
					s.skips[j] = 0
					return j, b, true
				}
			}
		}
		s.skips[j]++
	}
	return nil, 0, false
}

func (s *refFair) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	var best *mapreduce.Job
	for _, j := range s.jobs {
		if j.PendingReduces() == 0 {
			continue
		}
		if best == nil || j.RunningReduces() < best.RunningReduces() {
			best = j
		}
	}
	return best, best != nil
}

// skipSelector is a task selector that exposes its delay-scheduling skip
// counts.
type skipSelector interface {
	mapreduce.TaskSelector
	Skips(j *mapreduce.Job) int
}

// offer is one map offer as the tracker saw it: the chosen (job, block,
// ok) and every registered job's skip count right after it.
type offer struct {
	node       topology.NodeID
	job, block int
	ok         bool
	skips      []int // (job ID, skips) pairs in registration order
}

// offerLog decorates a selector and records every map offer.
type offerLog struct {
	skipSelector
	jobs   []*mapreduce.Job
	offers []offer
}

func (l *offerLog) AddJob(j *mapreduce.Job) {
	l.jobs = append(l.jobs, j)
	l.skipSelector.AddJob(j)
}

func (l *offerLog) RemoveJob(j *mapreduce.Job) {
	for i, cur := range l.jobs {
		if cur == j {
			l.jobs = append(l.jobs[:i], l.jobs[i+1:]...)
			break
		}
	}
	l.skipSelector.RemoveJob(j)
}

func (l *offerLog) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	j, b, ok := l.skipSelector.SelectMapTask(node, now)
	o := offer{node: node, job: -1, block: int(b), ok: ok}
	if ok {
		o.job = j.ID()
	}
	for _, r := range l.jobs {
		o.skips = append(o.skips, r.ID(), l.Skips(r))
	}
	l.offers = append(l.offers, o)
	return j, b, ok
}

// randomFairCase draws a job set that stresses the fair order: up to 80
// jobs arriving in a burst on a small cluster, one to three pools, small
// and large (indexed) jobs, and long reduce phases that keep many jobs
// active with no pending maps while running-map counts tie.
func randomFairCase(g *rand.Rand) (*config.Profile, *workload.Workload, int, int) {
	p := config.CCT()
	if g.Intn(2) == 1 {
		p = config.EC2Small()
	}
	p.Slaves = 6 + g.Intn(8)
	pools := []string{"", "batch", "adhoc"}[:1+g.Intn(3)]
	wl := &workload.Workload{
		Name:  "fair-oracle",
		Files: []workload.FileSpec{{Name: "a", Blocks: 60}, {Name: "b", Blocks: 25}},
	}
	n := 1 + g.Intn(80)
	at := 0.0
	for i := 0; i < n; i++ {
		at += g.ExpFloat64() * 0.4
		f := g.Intn(len(wl.Files))
		maps := 1 + g.Intn(4)
		if g.Intn(4) == 0 {
			maps = 16 + g.Intn(20)
		}
		if maps > wl.Files[f].Blocks {
			maps = wl.Files[f].Blocks
		}
		job := workload.Job{
			ID: i, Arrival: at, File: f, Pool: pools[g.Intn(len(pools))],
			FirstBlock: g.Intn(wl.Files[f].Blocks - maps + 1), NumMaps: maps,
			CPUPerTask: 0.5 + g.Float64()*2,
		}
		if g.Intn(3) > 0 {
			job.NumReduces = 1 + g.Intn(3)
			job.ReduceTime = 2 + g.Float64()*20
		}
		wl.Jobs = append(wl.Jobs, job)
	}
	return p, wl, 1 + g.Intn(6), g.Intn(6)
}

// runOffers runs the workload on a fresh cluster with sel behind an offer
// log and returns the log and the results.
func runOffers(t *testing.T, p *config.Profile, wl *workload.Workload, seed uint64, sel skipSelector) ([]offer, []mapreduce.Result) {
	t.Helper()
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	log := &offerLog{skipSelector: sel}
	tr, err := mapreduce.NewTracker(c, wl, log)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetInvariantChecks(true)
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return log.offers, res
}

// TestFairOrderMatchesStableSort drives the same offers through Fair and
// the stable-sort reference on twin clusters: the tracker launches each
// chosen task between offers, so running-map counts, pool loads and
// pending sets evolve as in a real run. After every offer the chosen
// (job, block, ok) and every registered job's skip count must agree.
func TestFairOrderMatchesStableSort(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	g := rand.New(rand.NewSource(1))
	for c := 0; c < cases; c++ {
		p, wl, d1, d2 := randomFairCase(g)
		seed := uint64(c + 1)
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			want, wantRes := runOffers(t, p, wl, seed, newRefFair(d1, d2))
			got, gotRes := runOffers(t, p, wl, seed, &Fair{MaxSkips: d1, RackSkips: d2})
			for i := 0; i < len(want) && i < len(got); i++ {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("offer %d of %d (%d jobs, %s): got %+v, reference %+v",
						i, len(want), len(wl.Jobs), p.Name, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d offers, reference made %d", len(got), len(want))
			}
			if fmt.Sprint(gotRes) != fmt.Sprint(wantRes) {
				t.Fatal("results differ from the reference run")
			}
		})
	}
}

// TestFairZeroValue: the zero Fair is usable, like the zero FIFO.
func TestFairZeroValue(t *testing.T) {
	fx := newFixture(t, 1)
	var s Fair
	j := fx.job(0, 0, 0, 4)
	s.AddJob(j)
	if len(s.jobs) != 1 || s.Skips(j) != 0 {
		t.Fatalf("zero Fair after AddJob: %d jobs, %d skips", len(s.jobs), s.Skips(j))
	}
	if _, _, ok := s.SelectMapTask(0, 0); !ok {
		t.Fatal("zero Fair (MaxSkips 0) must launch at once")
	}
	s.RemoveJob(j)
	if len(s.jobs) != 0 {
		t.Fatalf("zero Fair after RemoveJob: %d jobs", len(s.jobs))
	}
}

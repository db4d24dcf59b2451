package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestWL1Shape(t *testing.T) {
	w := WL1(1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 500 {
		t.Fatalf("jobs %d, want 500 (paper §V-A)", len(w.Jobs))
	}
	if len(w.Files) != 120 {
		t.Fatalf("files %d, want 120 (Fig. 6)", len(w.Files))
	}
	// wl1 is a long sequence of small jobs: median map count small, no
	// large-job class.
	big := 0
	for _, j := range w.Jobs {
		if j.NumMaps > 50 {
			big++
		}
	}
	if big > 10 {
		t.Fatalf("wl1 has %d jobs over 50 maps; should be a small-job stream", big)
	}
}

func TestWL2HasLargeJobPattern(t *testing.T) {
	w := WL2(1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	large := 0
	for _, j := range w.Jobs {
		if j.NumMaps >= 50 {
			large++
		}
	}
	// Every 10th job is large (some clipped by file size).
	if large < 20 {
		t.Fatalf("wl2 has only %d large jobs; expected a small-after-large pattern", large)
	}
	// wl2 job-size variance must exceed wl1's.
	varOf := func(w *Workload) float64 {
		var mean, m2 float64
		for i, j := range w.Jobs {
			d := float64(j.NumMaps) - mean
			mean += d / float64(i+1)
			m2 += d * (float64(j.NumMaps) - mean)
		}
		return m2 / float64(len(w.Jobs))
	}
	if varOf(WL2(2)) <= varOf(WL1(2)) {
		t.Fatal("wl2 variance should exceed wl1 variance")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := WL1(7), WL1(7)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job counts differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := WL1(8)
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i] == c.Jobs[i] {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestArrivalsMonotone(t *testing.T) {
	for _, w := range []*Workload{WL1(3), WL2(3)} {
		for i := 1; i < len(w.Jobs); i++ {
			if w.Jobs[i].Arrival < w.Jobs[i-1].Arrival {
				t.Fatalf("%s: arrivals not monotone at %d", w.Name, i)
			}
		}
	}
}

func TestAccessSkewMatchesZipf(t *testing.T) {
	// The most popular file must absorb far more accesses than the median
	// one (heavy tail of Fig. 6 / Fig. 2).
	w := Generate(GenConfig{NumJobs: 5000, Seed: 4})
	counts := w.AccessCounts()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if counts[0] < max/2 {
		t.Fatalf("rank-1 file has %d accesses, max is %d; expected rank 1 near the top", counts[0], max)
	}
	if float64(max) < 0.05*float64(len(w.Jobs)) {
		t.Fatalf("top file only %d/%d accesses; distribution not skewed", max, len(w.Jobs))
	}
}

func TestWindowsStayInsideFiles(t *testing.T) {
	f := func(seed uint64) bool {
		w := Generate(GenConfig{NumJobs: 100, Seed: seed})
		return w.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*Workload){
		func(w *Workload) { w.Jobs[0].File = 999 },
		func(w *Workload) { w.Jobs[0].NumMaps = 0 },
		func(w *Workload) { w.Jobs[0].FirstBlock = -1 },
		func(w *Workload) { w.Jobs[0].NumMaps = w.Files[w.Jobs[0].File].Blocks + 5 },
		func(w *Workload) { w.Jobs[0].CPUPerTask = 0 },
		func(w *Workload) { w.Jobs[1].Arrival = w.Jobs[0].Arrival - 100; w.Jobs[0].Arrival = 1e9 },
		func(w *Workload) { w.Jobs[0].NumReduces = 2; w.Jobs[0].ReduceTime = 0 },
		func(w *Workload) { w.Files[0].Blocks = 0 },
	}
	for i, mutate := range mutations {
		w := WL1(5)
		mutate(w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestTotalMaps(t *testing.T) {
	w := &Workload{
		Files: []FileSpec{{Name: "f", Blocks: 10}},
		Jobs: []Job{
			{NumMaps: 3, CPUPerTask: 1},
			{NumMaps: 7, CPUPerTask: 1},
		},
	}
	if w.TotalMaps() != 10 {
		t.Fatalf("TotalMaps %d", w.TotalMaps())
	}
}

func TestFig6PointsShape(t *testing.T) {
	pts := Fig6Points(120, 1.1)
	if len(pts) != 120 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[len(pts)-1].P != 1 {
		t.Fatalf("CDF must end at 1, got %v", pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
	// Heavy head: top 20 of 120 files should hold the majority of access
	// probability, as Fig. 6 shows.
	if pts[19].P < 0.5 {
		t.Fatalf("top-20 cumulative probability %v; Fig. 6 shows a heavy head", pts[19].P)
	}
	// Defaults kick in for zero arguments.
	if len(Fig6Points(0, 0)) != 120 {
		t.Fatal("defaults not applied")
	}
}

func TestBlockAccessCounts(t *testing.T) {
	w := &Workload{
		Files: []FileSpec{{Name: "f", Blocks: 5}},
		Jobs: []Job{
			{File: 0, FirstBlock: 0, NumMaps: 3, CPUPerTask: 1},
			{File: 0, FirstBlock: 2, NumMaps: 2, CPUPerTask: 1},
		},
	}
	counts := w.BlockAccessCounts()
	want := []int{1, 1, 2, 1, 0}
	for i, c := range counts[0] {
		if c != want[i] {
			t.Fatalf("block counts %v, want %v", counts[0], want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	w := WL2(9)
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || len(got.Files) != len(w.Files) || len(got.Jobs) != len(w.Jobs) {
		t.Fatal("round trip lost structure")
	}
	if math.Abs(got.ZipfS-w.ZipfS) > 1e-12 {
		t.Fatal("ZipfS lost")
	}
	for i := range w.Jobs {
		if got.Jobs[i] != w.Jobs[i] {
			t.Fatalf("job %d differs after round trip", i)
		}
	}
	for i := range w.Files {
		if got.Files[i] != w.Files[i] {
			t.Fatalf("file %d differs after round trip", i)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus,1,2\n",
		"file,f\n",
		"file,f,notanumber\n",
		"job,1,2\n",
		"job,x,0,0,0,1,1,0,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// invalidJobRows parse as job records on a 4-block file but describe
// impossible jobs: a window past the file's end (including one whose end
// overflows int), and non-finite times.
var invalidJobRows = []string{
	"job,0,0,0,3,9,1,0,0", // window [3,12)
	fmt.Sprintf("job,0,0,0,1,%d,1,0,0", math.MaxInt),
	"job,0,NaN,0,0,1,1,0,0",
	"job,0,0,0,0,1,+Inf,0,0",
	"job,0,0,0,0,1,1,1,NaN,1",
}

func TestReadCSVValidates(t *testing.T) {
	// Structurally valid CSV with semantically invalid content.
	for _, row := range invalidJobRows {
		if w, err := ReadCSV(bytes.NewBufferString("file,f,4\n" + row + "\n")); err == nil {
			t.Errorf("accepted %q as %+v", row, w.Jobs[0])
		}
	}
}

// FuzzReadWorkloadCSV: ReadCSV on arbitrary bytes returns an error or a
// workload that passes Validate — never a panic.
func FuzzReadWorkloadCSV(f *testing.F) {
	var valid bytes.Buffer
	w := WL1(3)
	w.Jobs = w.Jobs[:5]
	if err := w.WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, row := range invalidJobRows {
		f.Add([]byte("file,f,4\n" + row + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("ReadCSV returned a workload Validate rejects: %v", err)
		}
	})
}

func TestBurstProbCreatesCoArrivals(t *testing.T) {
	bursty := Generate(GenConfig{NumJobs: 1000, Seed: 15, BurstProb: 0.8})
	calm := Generate(GenConfig{NumJobs: 1000, Seed: 15, BurstProb: 0.01})
	zeroGaps := func(w *Workload) int {
		n := 0
		for i := 1; i < len(w.Jobs); i++ {
			if w.Jobs[i].Arrival == w.Jobs[i-1].Arrival {
				n++
			}
		}
		return n
	}
	b, c := zeroGaps(bursty), zeroGaps(calm)
	if b < 600 || b > 900 {
		t.Fatalf("bursty trace has %d co-arrivals of 999, want ~800", b)
	}
	if c > 50 {
		t.Fatalf("calm trace has %d co-arrivals, want ~10", c)
	}
	// Long-run rate is compensated: total spans comparable within 2x.
	sb := bursty.Jobs[len(bursty.Jobs)-1].Arrival
	sc := calm.Jobs[len(calm.Jobs)-1].Arrival
	if sb > 2*sc || sc > 2*sb {
		t.Fatalf("burst compensation failed: spans %.1f vs %.1f", sb, sc)
	}
}

func TestFileRepeatProbCreatesRuns(t *testing.T) {
	sticky := Generate(GenConfig{NumJobs: 1000, Seed: 16, FileRepeatProb: 0.8})
	repeats := 0
	for i := 1; i < len(sticky.Jobs); i++ {
		if sticky.Jobs[i].File == sticky.Jobs[i-1].File {
			repeats++
		}
	}
	if repeats < 600 {
		t.Fatalf("only %d consecutive same-file pairs with repeat prob 0.8", repeats)
	}
}

func TestPoolsAssignment(t *testing.T) {
	w := Generate(GenConfig{NumJobs: 30, Seed: 17, Pools: 3})
	seen := map[string]int{}
	for _, j := range w.Jobs {
		seen[j.Pool]++
	}
	if len(seen) != 3 {
		t.Fatalf("pools %v, want 3 distinct", seen)
	}
	for pool, n := range seen {
		if n != 10 {
			t.Fatalf("pool %s has %d jobs, want 10", pool, n)
		}
	}
	// Single-pool default leaves Pool empty.
	w2 := Generate(GenConfig{NumJobs: 5, Seed: 17})
	for _, j := range w2.Jobs {
		if j.Pool != "" {
			t.Fatal("default workload should use the empty pool")
		}
	}
}

func TestCSVPoolRoundTrip(t *testing.T) {
	w := Generate(GenConfig{NumJobs: 20, Seed: 18, Pools: 2})
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Jobs {
		if got.Jobs[i].Pool != w.Jobs[i].Pool {
			t.Fatalf("job %d pool lost in round trip", i)
		}
	}
}

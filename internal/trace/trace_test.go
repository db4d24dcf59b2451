package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func smallLog(seed uint64) *Log {
	return Generate(GenConfig{Files: 200, Accesses: 20000, Seed: seed})
}

func TestGenerateValid(t *testing.T) {
	l := smallLog(1)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l.Accesses) != 20000 || len(l.Files) != 200 {
		t.Fatalf("sizes %d/%d", len(l.Accesses), len(l.Files))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := smallLog(2), smallLog(2)
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestGenerateValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		l := Generate(GenConfig{Files: 50, Accesses: 2000, Seed: seed})
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessesSorted(t *testing.T) {
	l := smallLog(3)
	for i := 1; i < len(l.Accesses); i++ {
		if l.Accesses[i].Time < l.Accesses[i-1].Time {
			t.Fatal("accesses not time-sorted")
		}
	}
}

func TestFig2PopularityHeavyTailed(t *testing.T) {
	l := smallLog(4)
	ranks := PopularityRanks(l)
	if len(ranks) == 0 {
		t.Fatal("no ranks")
	}
	if ranks[0].Rank != 1 {
		t.Fatal("ranking must start at 1")
	}
	for i := 1; i < len(ranks); i++ {
		if ranks[i].Count > ranks[i-1].Count {
			t.Fatal("ranks not sorted by popularity")
		}
	}
	// Heavy tail: the top file must dominate the median file by an order
	// of magnitude (Fig. 2 spans several decades).
	mid := ranks[len(ranks)/2]
	if float64(ranks[0].Count) < 10*float64(mid.Count) {
		t.Fatalf("top %d vs median %d: not heavy-tailed", ranks[0].Count, mid.Count)
	}
	// Block weighting preserves positivity and scales by blocks.
	for _, r := range ranks {
		if r.Weighted < r.Count {
			t.Fatal("weighted count must be >= raw count (blocks >= 1)")
		}
	}
}

func TestFig3AgeCDFCalibration(t *testing.T) {
	l := Generate(GenConfig{Files: 500, Accesses: 100000, Seed: 5})
	cdf := AgeCDF(l)
	// Paper: ~80% of accesses within the first day of life.
	if day := cdf.At(Day); math.Abs(day-0.8) > 0.1 {
		t.Fatalf("P(age<1day) = %.3f, want ~0.8 (Fig. 3)", day)
	}
	// Paper: 50% of accesses by ~9h45m.
	med := cdf.Quantile(0.5)
	if med < 5*Hour || med > 16*Hour {
		t.Fatalf("median age %.1f h, want ~9.75 h", med/Hour)
	}
	// CDF must be monotone (sanity).
	if cdf.At(Hour) > cdf.At(Day) {
		t.Fatal("CDF not monotone")
	}
}

func TestFig4DailyPeriodicity(t *testing.T) {
	l := Generate(GenConfig{Files: 300, Accesses: 60000, Seed: 6})
	res, err := BurstWindows(l, DefaultWindowConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	if res.Files == 0 {
		t.Fatal("no big files analyzed")
	}
	var total float64
	for _, f := range res.Sizes {
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("window fractions sum to %v", total)
	}
	// Fig. 4's structure: the bursty majority fits within 1-2 hours...
	if res.Sizes[0]+res.Sizes[1] < 0.5 {
		t.Fatalf("1-2h window mass %.3f; bursty majority missing", res.Sizes[0]+res.Sizes[1])
	}
	// ...a multi-day population exists...
	var beyondDay float64
	for k := 24; k < len(res.Sizes); k++ {
		beyondDay += res.Sizes[k]
	}
	if beyondDay < 0.08 {
		t.Fatalf("only %.3f of files need >24h windows; daily periodicity missing", beyondDay)
	}
	// ...and the daily-recurrent class produces the paper's spike near the
	// 121-hour window (files read every day of the week).
	var spike float64
	for k := 96; k < len(res.Sizes) && k < 150; k++ {
		spike += res.Sizes[k]
	}
	if spike < 0.02 {
		t.Fatalf("no mass near the 121-hour window (%.3f); Fig. 4's spike missing", spike)
	}
}

func TestFig5InDayBursts(t *testing.T) {
	l := Generate(GenConfig{Files: 300, Accesses: 60000, Seed: 7})
	res, err := BurstWindows(l, Day2WindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Files == 0 {
		t.Fatal("no big files in day 2")
	}
	// Paper Fig. 5: within a day, most significant accesses lie within
	// one hour: the 1-2 slot windows must dominate.
	small := res.Sizes[0]
	if len(res.Sizes) > 1 {
		small += res.Sizes[1]
	}
	if small < 0.5 {
		t.Fatalf("only %.3f of files burst within <=2 hours in-day; Fig. 5 shows ~1-hour bursts", small)
	}
}

func TestBurstWindowsConfigValidation(t *testing.T) {
	l := smallLog(8)
	if _, err := BurstWindows(l, WindowConfig{SlotSize: 0, From: 0, To: 1}); err == nil {
		t.Fatal("zero slot size accepted")
	}
	if _, err := BurstWindows(l, WindowConfig{SlotSize: 1, From: 5, To: 5}); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestMinCoveringWindow(t *testing.T) {
	cases := []struct {
		hist     []int64
		coverage float64
		want     int
	}{
		{[]int64{10, 0, 0, 0}, 0.8, 1},
		{[]int64{5, 5, 0, 0}, 0.8, 2},
		{[]int64{4, 0, 0, 4, 0, 2}, 0.8, 4}, // needs 8 of 10: slots 0-3
		{[]int64{1, 1, 1, 1, 1}, 1.0, 5},    // full span
		{[]int64{0, 0, 9, 1}, 0.9, 1},       // 9 >= ceil(0.9*10)
		{[]int64{2, 2, 2, 2, 2}, 0.5, 3},    // 6 >= 5 needs 3 slots
		{[]int64{0, 10}, 0.0, 1},            // zero coverage
	}
	for i, c := range cases {
		var total int64
		for _, v := range c.hist {
			total += v
		}
		if got := minCoveringWindow(c.hist, total, c.coverage); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestMinCoveringWindowProperty(t *testing.T) {
	// The returned window really does cover the requested fraction, and no
	// shorter window does.
	f := func(raw []uint8, covRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		hist := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			hist[i] = int64(v % 20)
			total += hist[i]
		}
		if total == 0 {
			return true
		}
		coverage := 0.5 + float64(covRaw%50)/100 // 0.5..0.99
		w := minCoveringWindow(hist, total, coverage)
		need := int64(math.Ceil(coverage * float64(total)))
		// Verify some window of size w covers, and no window of size w-1
		// does.
		covers := func(size int) bool {
			var sum int64
			for i := 0; i < len(hist); i++ {
				sum += hist[i]
				if i >= size {
					sum -= hist[i-size]
				}
				if i >= size-1 && sum >= need {
					return true
				}
			}
			return false
		}
		if !covers(w) {
			return false
		}
		if w > 1 && covers(w-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	l := smallLog(9)
	l.Accesses[0].File = 9999
	if err := l.Validate(); err == nil {
		t.Fatal("bad file reference accepted")
	}
	l = smallLog(9)
	l.Accesses[0].Time = -5
	if err := l.Validate(); err == nil {
		t.Fatal("negative time accepted")
	}
	l = smallLog(9)
	l.Files[0].Blocks = 0
	if err := l.Validate(); err == nil {
		t.Fatal("zero blocks accepted")
	}
}

// normalQuantile is the inverse standard normal CDF (Acklam's rational
// approximation; |relative error| < 1.15e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("trace: quantile probability must be in (0,1), got %v", p))
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0}, {0.8, 0.8416}, {0.975, 1.9600}, {0.025, -1.9600}, {0.01, -2.3263},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.z) > 1e-3 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.z)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	normalQuantile(0)
}

func TestRenderers(t *testing.T) {
	l := smallLog(10)
	if out := RenderRanks(PopularityRanks(l)); len(out) == 0 {
		t.Fatal("empty rank rendering")
	}
	if out := RenderAgeCDF(AgeCDF(l)); len(out) == 0 {
		t.Fatal("empty CDF rendering")
	}
	res, err := BurstWindows(l, DefaultWindowConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderWindows(res); len(out) == 0 {
		t.Fatal("empty window rendering")
	}
}

func TestHourlyProfileConcentration(t *testing.T) {
	l := smallLog(11)
	prof := HourlyProfile(l)
	var sum float64
	for _, p := range prof {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("hourly shares sum to %v", sum)
	}
	// With per-file session hours spread uniformly, no single hour should
	// hold the majority, but every hour should see some traffic.
	for h, p := range prof {
		if p > 0.5 {
			t.Fatalf("hour %d holds %.2f of accesses", h, p)
		}
	}
}

func TestHourlyProfileEmpty(t *testing.T) {
	prof := HourlyProfile(&Log{Horizon: Week})
	for _, p := range prof {
		if p != 0 {
			t.Fatal("empty log should produce zero profile")
		}
	}
}

func TestRenderHourlyProfile(t *testing.T) {
	out := RenderHourlyProfile(HourlyProfile(smallLog(12)))
	if len(out) == 0 || !strings.Contains(out, "00:00") {
		t.Fatalf("bad rendering:\n%s", out)
	}
}

// TestSystemFilesReproduceM45Shape locks in the §III discussion: with the
// job-lifecycle system files included, the age-at-access CDF looks like
// Fan et al.'s M45 measurement (~50% of accesses within the first minute);
// excluded, it looks like the paper's Yahoo! curve (median ~10 h).
func TestSystemFilesReproduceM45Shape(t *testing.T) {
	without := Generate(GenConfig{Files: 300, Accesses: 30000, Seed: 13})
	with := Generate(GenConfig{Files: 300, Accesses: 30000, Seed: 13, IncludeSystemFiles: true})

	if err := with.Validate(); err != nil {
		t.Fatal(err)
	}
	cdfWithout := AgeCDF(without)
	cdfWith := AgeCDF(with)

	if m := cdfWithout.At(60); m > 0.05 {
		t.Fatalf("without system files, P(age<1min) = %.3f; should be negligible", m)
	}
	m := cdfWith.At(60)
	if m < 0.35 || m > 0.65 {
		t.Fatalf("with system files, P(age<1min) = %.3f; M45 reports ~0.5", m)
	}
	// The long-lived data files' behaviour underneath is unchanged.
	if day := cdfWithout.At(Day); day < 0.7 {
		t.Fatalf("data-file first-day fraction %.3f degraded", day)
	}
}

func TestSystemFilesFractionKnob(t *testing.T) {
	l := Generate(GenConfig{Files: 100, Accesses: 10000, Seed: 14, IncludeSystemFiles: true, SystemAccessFraction: 0.25})
	sys := 0
	for _, a := range l.Accesses {
		if l.Files[a.File].Blocks == 1 && a.Time-l.Files[a.File].Created < 61 {
			sys++
		}
	}
	frac := float64(sys) / float64(len(l.Accesses))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("system-access fraction %.3f, want ~0.25", frac)
	}
}

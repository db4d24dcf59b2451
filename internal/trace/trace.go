// Package trace reproduces the paper's characterization of data access
// patterns in production MapReduce clusters (§III, Figs. 2–5). The paper
// analyzed one week of HDFS audit logs from a 4000-node Yahoo! cluster;
// that dataset is not publicly redistributable, so this package pairs
//
//   - a synthetic audit-log generator calibrated to the published
//     findings: heavy-tailed file popularity (Fig. 2), ~80% of accesses
//     within the first day of a file's life with the median at ~9h45m
//     (Fig. 3), daily periodicity (Fig. 4's spike at the 121-hour window),
//     and sub-hour in-day bursts (Fig. 5); with
//
//   - the analyses that produce each figure from any access log, so they
//     can be pointed at real audit data when available.
package trace

import (
	"fmt"
	"math"
	"sort"

	"dare/internal/stats"
)

// Hour and Day are log time units in seconds.
const (
	Hour = 3600.0
	Day  = 24 * Hour
	Week = 7 * Day
)

// Access is one read in the audit log.
type Access struct {
	// Time is seconds since the start of the observation window.
	Time float64
	// File indexes Log.Files.
	File int
}

// FileInfo is the per-file metadata the analyses need.
type FileInfo struct {
	// Created is the file creation time in seconds (may be negative for
	// files that predate the observation window).
	Created float64
	// Blocks is the file size in 128 MB blocks (Fig. 2's block-weighted
	// popularity).
	Blocks int
}

// Log is an access trace over a file population.
type Log struct {
	Files    []FileInfo
	Accesses []Access
	// Horizon is the observation window length in seconds.
	Horizon float64
}

// Validate checks referential and temporal integrity. Every time must be
// finite: a NaN compares false both ways, so it would slip past the range
// checks below.
func (l *Log) Validate() error {
	if !finite(l.Horizon) {
		return fmt.Errorf("trace: horizon %v is not finite", l.Horizon)
	}
	for i, f := range l.Files {
		if !finite(f.Created) {
			return fmt.Errorf("trace: file %d created at %v, not a finite time", i, f.Created)
		}
	}
	for i, a := range l.Accesses {
		if !finite(a.Time) {
			return fmt.Errorf("trace: access %d at %v, not a finite time", i, a.Time)
		}
		if a.File < 0 || a.File >= len(l.Files) {
			return fmt.Errorf("trace: access %d references file %d of %d", i, a.File, len(l.Files))
		}
		if a.Time < 0 || a.Time > l.Horizon {
			return fmt.Errorf("trace: access %d at %v outside horizon %v", i, a.Time, l.Horizon)
		}
		if a.Time < l.Files[a.File].Created {
			return fmt.Errorf("trace: access %d precedes creation of file %d", i, a.File)
		}
	}
	for i, f := range l.Files {
		if f.Blocks < 1 {
			return fmt.Errorf("trace: file %d has %d blocks", i, f.Blocks)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// GenConfig parameterizes the synthetic Yahoo!-shaped audit log.
type GenConfig struct {
	// Files is the population size.
	Files int
	// Accesses is the total number of access events.
	Accesses int
	// ZipfS is the popularity exponent (Fig. 2's slope).
	ZipfS float64
	// FirstDayFraction is the fraction of accesses within the first day
	// of life (paper: ~0.8, Fig. 3).
	FirstDayFraction float64
	// RecurrentFraction is the share of files that are *daily-recurrent*:
	// read every day for the rest of the week (dashboards, ETL inputs).
	// These are the files behind Fig. 4's spike at the ~121-hour window —
	// covering 80% of their accesses requires spanning most of the week.
	// 0 means the default 0.15; negative disables the class.
	RecurrentFraction float64
	// IncludeSystemFiles adds the job-lifecycle files (job.jar, job.xml,
	// job.split) the paper deliberately *excludes* from its analysis
	// (§III): each is created, read within seconds-to-a-minute, and never
	// touched again. Enabling them reproduces the Yahoo! M45 result the
	// paper contrasts itself with — Fan et al. saw 50% of accesses at
	// one-minute age because such files dominated their log.
	IncludeSystemFiles bool
	// SystemAccessFraction is the share of all accesses that hit system
	// files when IncludeSystemFiles is set (0 = 0.5, roughly M45-like).
	SystemAccessFraction float64
	// Seed drives all sampling.
	Seed uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Files == 0 {
		c.Files = 1000
	}
	if c.Accesses == 0 {
		c.Accesses = 200000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.FirstDayFraction == 0 {
		c.FirstDayFraction = 0.8
	}
	if c.IncludeSystemFiles && c.SystemAccessFraction == 0 {
		c.SystemAccessFraction = 0.5
	}
	if c.RecurrentFraction == 0 {
		c.RecurrentFraction = 0.15
	}
	if c.RecurrentFraction < 0 {
		c.RecurrentFraction = 0
	}
	return c
}

// Generate synthesizes one week of audit log. Each file is created at a
// uniformly random instant of the week (files created late receive fewer
// in-window accesses, as in reality); each access lands a geometric number
// of days after creation — calibrated so FirstDayFraction of accesses fall
// within the first day (Fig. 3) — and within a day, a file's accesses
// cluster around its preferred hour (the working session that consumes
// it), producing the 1-hour bursts of Fig. 5 and the daily periodicity of
// Fig. 4.
func Generate(cfg GenConfig) *Log {
	cfg = cfg.withDefaults()
	g := stats.NewRNG(cfg.Seed)
	fileG, popG, ageG, burstG := g.Split(1), g.Split(2), g.Split(3), g.Split(4)

	// Accesses are placed as (day offset k from the creation day, time of
	// day near the file's session hour). k is geometric: P(k) = x·r^k
	// with x = 1-r. Day-0 draws whose session hour precedes the creation
	// instant are redrawn (~half of them), and k=1 accesses still land
	// within one day of creation when the session hour is earlier in the
	// day than the creation instant (again ~half). Solving
	// P(age < 1 day) = [0.5x + 0.5rx] / (1 - 0.5x) = f for x gives
	// x² - (2+f)x + 2f = 0, whose admissible root calibrates r exactly to
	// the target first-day fraction of Fig. 3.
	// Recurrent files spread their accesses across all remaining days, so
	// only ~1/4 of their accesses land on day 0 (creation is uniform over
	// the week). The bursty majority is recalibrated so the *blended*
	// first-day fraction still hits the target.
	f := cfg.FirstDayFraction
	if cfg.RecurrentFraction > 0 && cfg.RecurrentFraction < 0.8 {
		const recurrentFirstDay = 0.25
		f = (f - cfg.RecurrentFraction*recurrentFirstDay) / (1 - cfg.RecurrentFraction)
		if f > 0.97 {
			f = 0.97
		}
	}
	x := ((2 + f) - math.Sqrt((2+f)*(2+f)-8*f)) / 2
	r := 1 - x
	if r < 0.02 {
		r = 0.02
	}

	l := &Log{Horizon: Week}
	sizeDist := stats.BoundedPareto{L: 1, H: 64, Alpha: 1.2}
	prefHour := make([]float64, cfg.Files)
	recurrent := make([]bool, cfg.Files)
	recEvery := 0
	if cfg.RecurrentFraction > 0 {
		recEvery = int(1 / cfg.RecurrentFraction)
	}
	for i := 0; i < cfg.Files; i++ {
		l.Files = append(l.Files, FileInfo{
			Created: fileG.Float64() * (Week - Day), // leave room for accesses
			Blocks:  int(math.Round(sizeDist.Sample(fileG))),
		})
		if l.Files[i].Blocks < 1 {
			l.Files[i].Blocks = 1
		}
		prefHour[i] = fileG.Float64() * 24
		// Deterministic striping keeps the class present at every
		// popularity rank.
		if recEvery > 0 && i%recEvery == recEvery/2 {
			recurrent[i] = true
		}
	}

	zipf := stats.NewZipf(cfg.Files, cfg.ZipfS, 0)
	for n := 0; n < cfg.Accesses; n++ {
		f := zipf.Rank(popG) - 1
		created := l.Files[f].Created
		creationDay := math.Floor(created/Day) * Day
		var t float64
		placed := false
		for try := 0; try < 32 && !placed; try++ {
			var k int
			if recurrent[f] {
				// Daily-recurrent: any remaining day of the week with equal
				// probability (Fig. 4's 121-hour spike population).
				daysLeft := int((Week-created)/Day) + 1
				k = ageG.Intn(daysLeft)
			} else {
				// Geometric day offset: most accesses on the creation day,
				// decaying daily (Figs. 3 and 4).
				for ageG.Float64() < r {
					k++
				}
			}
			// Session burst: the file's preferred hour ± 30 minutes
			// (Fig. 5's one-hour in-day windows).
			tod := prefHour[f]*Hour + (burstG.Float64()-0.5)*Hour
			if tod < 0 {
				tod += Day
			}
			if tod >= Day {
				tod -= Day
			}
			t = creationDay + float64(k)*Day + tod
			placed = t >= created && t <= Week
		}
		if !placed {
			// Rare fallback for files created at the very edge of the
			// window: uniform over the remaining horizon.
			t = created + ageG.Float64()*(Week-created)
		}
		l.Accesses = append(l.Accesses, Access{Time: t, File: f})
	}
	if cfg.IncludeSystemFiles {
		addSystemFiles(l, cfg, g.Split(5))
	}
	sort.Slice(l.Accesses, func(i, j int) bool { return l.Accesses[i].Time < l.Accesses[j].Time })
	return l
}

// addSystemFiles appends job-lifecycle files: each "job submission"
// creates a fresh one-block file that is read a handful of times within
// the first minute of its life and then abandoned (the real ones are
// deleted; for the age analysis only creation and access times matter).
func addSystemFiles(l *Log, cfg GenConfig, g *stats.RNG) {
	target := int(cfg.SystemAccessFraction / (1 - cfg.SystemAccessFraction) * float64(len(l.Accesses)))
	const readsPerJob = 4 // jar + xml + split fetches by the first tasks
	jobs := target / readsPerJob
	for j := 0; j < jobs; j++ {
		created := g.Float64() * (Week - 2*60)
		l.Files = append(l.Files, FileInfo{Created: created, Blocks: 1})
		id := len(l.Files) - 1
		for r := 0; r < readsPerJob; r++ {
			// Ages concentrate below one minute (task startup).
			age := g.Float64() * 60
			l.Accesses = append(l.Accesses, Access{Time: created + age, File: id})
		}
	}
}

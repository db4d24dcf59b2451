package workload

import (
	"math"

	"dare/internal/trace"
)

// StreamConfig parameterizes an open-ended job stream for service-mode
// runs (`dare-sim -stream`). The embedded GenConfig is the same sampler
// Generate uses; NumJobs is ignored — the stream never runs dry.
type StreamConfig struct {
	Gen GenConfig
	// DiurnalAmplitude in [0, 1) modulates the arrival rate sinusoidally
	// around its mean: rate(t) = 1 + A·sin(2π·t/Period − π/2), so load
	// bottoms at t = 0 ("midnight", stream start) and peaks half a period
	// in. This is the daily access periodicity of the paper's Fig. 4 —
	// internal/trace models the same cycle on the access side
	// (trace.GenConfig's day-level session placement). Zero disables
	// modulation: a stationary Poisson-with-bursts process, exactly
	// Generate's arrival law.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period in seconds; zero means
	// trace.Day (24 h). Shorter periods compress "days" so a short run
	// still sweeps load levels.
	DiurnalPeriod float64
}

// Stream synthesizes jobs on demand, window by window, from the same
// sampler Generate uses. It is fully deterministic: a stream rebuilt with
// the same config and asked for the same window boundaries reproduces the
// same jobs — which is how a resumed streaming run regenerates its
// arrivals during replay.
type Stream struct {
	s *jobSynth
	w *Workload
	// pending buffers the one job synthesized past the last window edge:
	// the generator can only discover a window is exhausted by sampling
	// one arrival beyond it, and that job must not be lost or resampled.
	pending *Job
	emitted int
}

// NewStream builds the file population (identical to Generate's for the
// same GenConfig) and a primed generator positioned before job 0.
func NewStream(cfg StreamConfig) *Stream {
	g := cfg.Gen.withDefaults()
	s, w := newSynth(g)
	if cfg.DiurnalAmplitude > 0 {
		amp := cfg.DiurnalAmplitude
		if amp >= 1 {
			amp = 0.95
		}
		period := cfg.DiurnalPeriod
		if period <= 0 {
			period = trace.Day
		}
		s.rate = func(t float64) float64 {
			return 1 + amp*math.Sin(2*math.Pi*t/period-math.Pi/2)
		}
	}
	return &Stream{s: s, w: w}
}

// Workload returns the trace skeleton: the file population to pre-load,
// with an empty job list (jobs arrive through Next).
func (st *Stream) Workload() *Workload { return st.w }

// Next returns every job with Arrival < until, in arrival order,
// advancing the generator. Successive calls with non-decreasing
// boundaries partition the job sequence: each job is returned exactly
// once. A call whose window contains no arrivals returns nil.
func (st *Stream) Next(until float64) []Job {
	var jobs []Job
	if st.pending != nil {
		if st.pending.Arrival >= until {
			return nil
		}
		jobs = append(jobs, *st.pending)
		st.pending = nil
	}
	for {
		j := st.s.nextJob()
		if j.Arrival >= until {
			st.pending = &j
			st.emitted += len(jobs)
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// Emitted reports how many jobs Next has returned so far (excluding the
// buffered look-ahead job).
func (st *Stream) Emitted() int { return st.emitted }

// Package retry holds the capped-exponential-backoff core shared by the
// integrity-aware read path (mapreduce.grayRead), the master-outage
// retry machinery and the requeue of a killed map task. It exists so
// these cannot drift: the gray read's retry pacing was tuned against the
// committed goldens, and the failover and requeue paths reuse the exact
// arithmetic (including the overflow guard) rather than reimplementing
// it.
package retry

// Backoff computes capped exponential delays: attempt n (0-based) waits
// Base·2ⁿ, saturating at Cap. The zero value is useless (always 0);
// construct with both fields set.
type Backoff struct {
	// Base is the attempt-0 delay; successive attempts double it.
	Base float64
	// Cap bounds the delay. It also backstops shift overflow: once the
	// doubled multiplier wraps negative or past Cap, the delay pins at Cap.
	Cap float64
}

// Delay returns the backoff before retry `attempt` (0-based). The
// formula is bit-identical to the historical grayRead core: Base·2ⁿ via
// an int64 shift, clamped to Cap when it exceeds it or when the shift
// overflows to a non-positive multiplier (attempt ≥ 63).
func (b Backoff) Delay(attempt int) float64 {
	d := b.Base * float64(int64(1)<<uint(attempt))
	if d > b.Cap || d <= 0 {
		d = b.Cap
	}
	return d
}

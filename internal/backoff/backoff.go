// Package backoff is the daemon's one retry schedule for a persistently
// failing source — a log file the tailer cannot read, a sensor the
// aggregator cannot reach: the first failure waits one base interval,
// each consecutive failure doubles the wait up to a cap, and any success
// resets it. The schedule only gates how soon a failing source is
// retried; the cadence of healthy sources is the caller's.
package backoff

import "time"

// maxDelay bounds the retry delay: 32 doublings of a sub-second interval
// would otherwise reach minutes, and an operator fixing the disk or the
// network should not wait longer than this for the daemon to notice.
const maxDelay = time.Minute

// Backoff is one source's schedule. Not safe for concurrent use.
type Backoff struct {
	base, max time.Duration
	delay     time.Duration
	until     time.Time
}

// New returns a schedule that starts at base and caps at
// min(32×base, 1m), never below base.
func New(base time.Duration) Backoff {
	return Backoff{base: base, max: max(base, min(32*base, maxDelay))}
}

// Ready reports whether the backed-off source may be tried again.
func (b *Backoff) Ready(now time.Time) bool { return !now.Before(b.until) }

// Failure records a failed try and returns the wait before the next.
func (b *Backoff) Failure(now time.Time) time.Duration {
	if b.delay == 0 {
		b.delay = b.base
	} else {
		b.delay = min(2*b.delay, b.max)
	}
	b.until = now.Add(b.delay)
	return b.delay
}

// Success resets the schedule after a clean try.
func (b *Backoff) Success() {
	b.delay = 0
	b.until = time.Time{}
}

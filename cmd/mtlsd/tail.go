package main

import (
	"context"
	"time"

	"repro/internal/backoff"
)

const (
	tailErrMetric = "mtlsd_tail_errors_total"
	tailErrHelp   = "tail polls that returned an error"
)

// catchUpRounds caps how many interleaved poll rounds one wake spends on
// backlog. Each round consumes at most one chunk per log (4 MiB by
// default), so the cap bounds one wake's work at ~1 GiB per file while
// keeping checkpoints and shutdown responsive; the tailer loop starts
// the next wake at once, where this one stopped.
const catchUpRounds = 256

// tailSource is one log feeding catchUp: poll reads and ingests at most
// one chunk and returns how many records it consumed and whether it
// stopped at the chunk cap with more of the log unread; fail reports a
// poll error together with the backoff wait it earned.
type tailSource struct {
	bo   backoff.Backoff
	poll func() (n int, more bool, err error)
	fail func(err error, wait time.Duration)
}

// catchUp reads the logs for one wake. The sources are interleaved — at
// most one chunk each per round, in slice order — and never run to
// exhaustion in turn: a writer keeping one log hot would otherwise hold
// its until-empty loop forever, starving every other log (ssl.log lag
// grew without bound while x509.log streamed). A round follows only
// while some source stopped at its chunk cap: a poll that read to the end
// of what was written leaves nothing for another round, and what is
// written after it brings the next wake. The round cap bounds the wake
// even when every source stays behind its cap. Returns per-source record
// counts, parallel to srcs, and whether the round cap, not the logs,
// ended the wake.
func catchUp(ctx context.Context, rounds int, srcs []*tailSource) (counts []int, behind bool) {
	counts = make([]int, len(srcs))
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		more := false
		for i, s := range srcs {
			if !s.bo.Ready(time.Now()) {
				continue
			}
			n, capped, err := s.poll()
			if err != nil {
				s.fail(err, s.bo.Failure(time.Now()))
			} else {
				s.bo.Success()
			}
			counts[i] += n
			more = more || capped
		}
		if !more {
			return counts, false
		}
	}
	return counts, ctx.Err() == nil
}

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

// catchUpRounds caps how many interleaved poll rounds one tick spends on
// backlog. Each round consumes at most one chunk per log (4 MiB by
// default), so the cap bounds one tick's work at ~1 GiB per file while
// keeping checkpoints and shutdown responsive; the next tick resumes
// where this one stopped.
const catchUpRounds = 256

// tailSource is one log feeding catchUp: poll reads and ingests at most
// one chunk and returns how many records it consumed; fail reports a
// poll error together with the backoff wait it earned.
type tailSource struct {
	bo   backoff.Backoff
	poll func() (int, error)
	fail func(err error, wait time.Duration)
}

// catchUp drains the logs' backlogs for one tick. The sources are
// interleaved — at most one chunk each per round, in slice order — and
// never run to exhaustion in turn: a writer keeping one log hot would
// otherwise hold its until-empty loop forever, starving every other log
// (ssl.log lag grew without bound while x509.log streamed). The round
// cap bounds the tick even when all sources stay hot. Returns per-source
// record counts, parallel to srcs.
func catchUp(ctx context.Context, rounds int, srcs []*tailSource) []int {
	counts := make([]int, len(srcs))
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		progress := false
		for i, s := range srcs {
			if !s.bo.Ready(time.Now()) {
				continue
			}
			n, err := s.poll()
			if err != nil {
				s.fail(err, s.bo.Failure(time.Now()))
			} else {
				s.bo.Success()
			}
			counts[i] += n
			if n > 0 {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return counts
}

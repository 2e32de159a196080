package stream

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/race"
)

// mergeReplays reads the merged view's replay counters back by reason.
func mergeReplays(reg *metrics.Registry) map[core.ReplayReason]uint64 {
	out := map[core.ReplayReason]uint64{}
	for _, why := range core.ReplayReasons {
		if n := reg.Counter("stream_merge_replays_total", "", "reason", string(why)).Value(); n > 0 {
			out[why] = n
		}
	}
	return out
}

// holdBack parks the window's queue: what the router sends piles up in a
// side channel nobody drains, so the window stops applying while its
// state lock stays free — a lagging apply goroutine without the timing.
// release forwards what piled up, in order, and reconnects the queue; it
// also runs at cleanup, since Close must find the real queue.
func holdBack(t *testing.T, w *window) (release func()) {
	w.drain() // the apply loop holds its channel by now and never re-reads the field
	queue, parked := w.ch, make(chan event, 1<<16)
	w.sendMu.Lock()
	w.ch = parked
	w.sendMu.Unlock()
	release = func() {
		w.sendMu.Lock()
		defer w.sendMu.Unlock()
		for len(parked) > 0 {
			queue <- <-parked
		}
		w.ch = queue
	}
	t.Cleanup(release)
	return release
}

// windowOracle replays s's window and roster as they stand through a fresh
// MergeShards, under the detector's current verdict — what a read must
// equal while the apply loop lags.
func windowOracle(s *Engine, pre *core.PreprocessReport) *core.Analysis {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.icpt.Result()
	s.win.mu.Lock()
	conns, seqs := s.win.st.Snapshot(0)
	s.win.mu.Unlock()
	states := []core.ShardState{{Certs: s.roster}, {Conns: conns, Seqs: seqs}}
	b := core.MergeShards(s.cfg.Input, states, func(fp ids.Fingerprint) bool { return res.ExcludedCerts[fp] })
	return b.Pipeline(pre).RunAll()
}

// TestShardedLaggingShardCatchesUp holds the window's queue back while the
// router keeps numbering and observing. A read then reflects what the
// window has applied — a true prefix of the stream, since one apply loop
// appends in sequence order — under the verdict over everything routed,
// and costs a catch-up, not a replay; once the window catches up the next
// read appends what was held back, and after Drain the engine equals the
// batch pipeline. No read ever meets a connection sorting below one it
// already merged.
func TestShardedLaggingShardCatchesUp(t *testing.T) {
	b := genBuild(20240504, 1500)
	in := inputFromBuild(b)
	in.Raw = nil
	certs, conns := certRecords(b), b.Raw.Conns
	third := len(conns) / 3
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })
	feedBatches(t, s, certs, conns[:third], 256)
	s.Drain()

	// Every certificate is in before any connection, so the only replay
	// is the first read's: a read that finds the verdict grown takes back
	// what it excludes.
	wantReplays := map[core.ReplayReason]uint64{core.ReplayFirst: 1}
	read := func(step string, wantConns int) *core.Analysis {
		t.Helper()
		got := s.Analysis()
		if got.Preprocess.RawConns != wantConns {
			t.Fatalf("%s: the read reflects %d connections, want the %d the window applied", step, got.Preprocess.RawConns, wantConns)
		}
		if want := windowOracle(s, got.Preprocess); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the read differs from a replay of the window as it stands", step)
		}
		if replays := mergeReplays(reg); !reflect.DeepEqual(replays, wantReplays) {
			t.Fatalf("%s: replays %v, want %v", step, replays, wantReplays)
		}
		if st := s.Stats(); st.Rebuilds != 1 {
			t.Fatalf("%s: Stats().Rebuilds = %d, want the replays %v", step, st.Rebuilds, wantReplays)
		}
		return got
	}
	read("first third, drained", third)

	for round := 0; round < 2; round++ {
		lo, hi := third*(round+1), third*(round+2)
		if round == 1 {
			hi = len(conns)
		}
		mid := (lo + hi) / 2
		feedBatches(t, s, nil, conns[lo:mid], 256)
		s.Drain()
		release := holdBack(t, s.win)
		feedBatches(t, s, nil, conns[mid:hi], 256)
		merges := reg.Counter("stream_merges_total", "").Value()
		// The window applied the slice's first half. The router numbered
		// the second and its detector saw it; the window applied none of
		// it, and the read appends the first half alone.
		read("the window held back", mid)
		if reg.Counter("stream_merges_total", "").Value() != merges+1 {
			t.Fatal("the read with the window held back did not run a catch-up")
		}
		release()
		s.Drain()
		read("the window caught up", hi)
	}

	if !reflect.DeepEqual(s.Analysis(), core.Run(inputFromBuild(b))) {
		t.Error("after Drain the analysis differs from the batch pipeline's")
	}
	if reg.Counter("stream_merges_total", "").Value() <= 1 {
		t.Errorf("vacuous: every one of the merges was a replay (%v)", wantReplays)
	}
}

// shardedCatchUp builds a deployment whose window holds at least window
// connections (the build's, cycled), reads it, and then measures reads
// that each follow k further connections: how many connections the
// catch-up enriched and the fewest allocations one took.
func shardedCatchUp(t *testing.T, window, k int) (enriched, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })
	feedBatches(t, s, certRecords(b), nil, 512)
	for fed := 0; fed < window; fed += len(b.Raw.Conns) {
		feedBatches(t, s, nil, b.Raw.Conns, 512)
	}
	s.Drain()
	s.WithPipeline(func(*core.Pipeline) {})
	allocs = ^uint64(0)
	for round := 0; round < 5; round++ {
		feedBatches(t, s, nil, b.Raw.Conns[:k], 512)
		s.Drain()
		before := s.view.Stats().Enriched
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.WithPipeline(func(*core.Pipeline) {})
		runtime.ReadMemStats(&m1)
		enriched = s.view.Stats().Enriched - before
		// The enriched-view slice doubles now and then; the cheapest round
		// is one that did not.
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
	}
	if got := mergeReplays(reg); len(got) != 1 || got[core.ReplayFirst] != 1 {
		t.Fatalf("window=%d: replays %v, want only the first read's", window, got)
	}
	return enriched, allocs
}

// shardedLateCert is shardedCatchUp for a certificate that comes after k
// connections presenting it as their client leaf, a read in between: what
// the read after the certificate enriched, re-enriched in place and, at
// the least, allocated.
func shardedLateCert(t *testing.T, window, k int) (st core.MergeStats, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })
	feedBatches(t, s, certRecords(b), nil, 512)
	for fed := 0; fed < window; fed += len(b.Raw.Conns) {
		feedBatches(t, s, nil, b.Raw.Conns, 512)
	}
	allocs = ^uint64(0)
	for round := 0; round < 5; round++ {
		late := *b.Raw.Certs[b.Raw.Conns[0].ServerLeaf()]
		late.Fingerprint = ids.Fingerprint(fmt.Sprintf("late-client-%d", round))
		naming := slices.Clone(b.Raw.Conns[:k])
		for i := range naming {
			naming[i].ClientChain = []ids.Fingerprint{late.Fingerprint}
		}
		feedBatches(t, s, nil, naming, 512)
		s.Drain()
		s.WithPipeline(func(*core.Pipeline) {})
		s.IngestCert(&core.CertRecord{TS: late.NotBefore, Cert: &late})
		s.Drain()
		before := s.view.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.WithPipeline(func(*core.Pipeline) {})
		runtime.ReadMemStats(&m1)
		st = s.view.Stats()
		st.Enriched, st.Late = st.Enriched-before.Enriched, st.Late-before.Late
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
	}
	if got := mergeReplays(reg); len(got) != 1 || got[core.ReplayFirst] != 1 {
		t.Fatalf("window=%d: replays %v, want only the first read's", window, got)
	}
	if got := reg.Counter("stream_merge_late_conns_total", "").Value(); got != s.view.Stats().Late {
		t.Fatalf("window=%d: stream_merge_late_conns_total = %d, the view re-enriched %d", window, got, s.view.Stats().Late)
	}
	return st, allocs
}

// TestShardedCatchUpIsODelta gates the batched read's cost on counts: a
// read that follows k new connections enriches those and allocates the
// same, whether 5k or 50k connections are already merged; a read that
// follows a certificate k merged connections had named re-enriches those,
// enriches nothing and allocates the same behind 5k and behind 20k.
func TestShardedCatchUpIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	const k = 1000
	smallN, smallA := shardedCatchUp(t, 5000, k)
	largeN, largeA := shardedCatchUp(t, 50000, k)
	t.Logf("a catch-up of %d enriched %d with %d allocs behind 5k, %d with %d allocs behind 50k", k, smallN, smallA, largeN, largeA)
	if smallN == 0 || smallN > k || smallN != largeN {
		t.Errorf("a catch-up of %d connections enriched %d behind 5k and %d behind 50k", k, smallN, largeN)
	}
	if smallA != largeA {
		t.Errorf("catch-up allocations depend on the window: %d behind 5k, %d behind 50k", smallA, largeA)
	}
	smallSt, smallA := shardedLateCert(t, 5000, k)
	largeSt, largeA := shardedLateCert(t, 20000, k)
	t.Logf("a certificate late for %d re-enriched %d with %d allocs behind 5k, %d with %d allocs behind 20k",
		k, smallSt.Late, smallA, largeSt.Late, largeA)
	for _, st := range []core.MergeStats{smallSt, largeSt} {
		if st.Late != k || st.Enriched != 0 {
			t.Errorf("a certificate late for %d connections re-enriched %d and enriched %d", k, st.Late, st.Enriched)
		}
	}
	if smallA != largeA {
		t.Errorf("late-certificate allocations depend on the window: %d behind 5k, %d behind 20k", smallA, largeA)
	}
}

// TestParkedReportBlocksNothing: a report scan parked inside its fn holds
// no lock that ingestion or a health check needs — a batch is applied,
// Drain returns and Stats answers (stale, with the parked read's one
// replay) while the scan is still out. The shards=2 case is what a
// deployment that still asks for two shards gets: the same one window.
func TestParkedReportBlocksNothing(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			g, err := NewSharded(n, Config{Input: in})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Close)
			half := len(b.Raw.Conns) / 2
			feedBatches(t, g, certRecords(b), b.Raw.Conns[:half], 512)
			g.Drain()

			parked, release := make(chan struct{}), make(chan struct{})
			read := make(chan struct{})
			go func() {
				defer close(read)
				g.WithPipeline(func(*core.Pipeline) { close(parked); <-release })
			}()
			<-parked
			got := make(chan Stats, 1)
			go func() {
				g.IngestConnBatch(b.Raw.Conns[half:])
				g.Drain()
				got <- g.Stats()
			}()
			select {
			case st := <-got:
				if st.ConnsIngested != uint64(len(b.Raw.Conns)) || st.Rebuilds != 1 || !st.Dirty {
					t.Errorf("Stats() beside the parked report = %d conns, %d rebuilds, dirty %v; want %d, 1, true",
						st.ConnsIngested, st.Rebuilds, st.Dirty, len(b.Raw.Conns))
				}
			case <-time.After(10 * time.Second):
				t.Error("ingest, Drain or Stats waited behind a parked report")
			}
			close(release)
			<-read
		})
	}
}

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

// holdBack parks shard e's queue: what the router sends piles up in a
// side channel nobody drains, so the shard stops applying while its state
// lock stays free — a lagging apply goroutine without the timing. release
// forwards what piled up, in order, and reconnects the queue; it also
// runs at cleanup, since Close must find the real queue.
func holdBack(t *testing.T, e *shard) (release func()) {
	e.drain() // the apply loop holds its channel by now and never re-reads the field
	queue, parked := e.ch, make(chan event, 1<<16)
	e.sendMu.Lock()
	e.ch = parked
	e.sendMu.Unlock()
	release = func() {
		e.sendMu.Lock()
		defer e.sendMu.Unlock()
		for len(parked) > 0 {
			queue <- <-parked
		}
		e.ch = queue
	}
	t.Cleanup(release)
	return release
}

// frontierOracle replays s's shards as they stand through a fresh
// MergeShards, connections capped below frontier, under the detector's
// current verdict — what a read must equal while a shard lags.
func frontierOracle(s *Engine, frontier uint64, pre *core.PreprocessReport) *core.Analysis {
	s.mu.Lock()
	states := []core.ShardState{{Certs: s.roster}}
	res := s.icpt.Result()
	s.mu.Unlock()
	for _, e := range s.shards {
		e.mu.Lock()
		conns, seqs := e.st.Snapshot(0)
		k, _ := slices.BinarySearch(seqs, frontier)
		states = append(states, core.ShardState{Conns: conns[:k], Seqs: seqs[:k]})
		e.mu.Unlock()
	}
	b := core.MergeShards(s.cfg.Input, states, func(fp ids.Fingerprint) bool { return res.ExcludedCerts[fp] })
	return b.Pipeline(pre).RunAll()
}

// TestShardedLaggingShardCatchesUp holds one shard's queue back while the
// others keep applying. A read then reflects the applied frontier — the
// connections below the lagging shard's last applied sequence (or, past
// that, what an earlier read had already merged), a true prefix of the
// global stream — and costs a catch-up, not a replay; once
// the shard catches up the next read appends what was held back, and
// after Drain the engine equals the batch pipeline. No read ever meets a
// connection sorting below one it already merged.
func TestShardedLaggingShardCatchesUp(t *testing.T) {
	b := genBuild(20240504, 1500)
	in := inputFromBuild(b)
	in.Raw = nil
	certs, conns := certRecords(b), b.Raw.Conns
	third := len(conns) / 3
	reg := metrics.New()
	s := newSharded(t, 3, in, func(c *Config) { c.Metrics = reg })
	feedBatches(t, s, certs, conns[:third], 256)
	s.Drain()

	// Every certificate is in before any connection, so the only replay
	// is the first read's: a read that finds the verdict grown takes back
	// what it excludes.
	wantReplays := map[core.ReplayReason]uint64{core.ReplayFirst: 1}
	read := func(step string, frontier uint64, wantConns int) *core.Analysis {
		t.Helper()
		got := s.Analysis()
		if got.Preprocess.RawConns != wantConns {
			t.Fatalf("%s: the read reflects %d connections, want the %d below the frontier", step, got.Preprocess.RawConns, wantConns)
		}
		if want := frontierOracle(s, frontier, got.Preprocess); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the read differs from a replay of the shards below the frontier", step)
		}
		if replays := mergeReplays(reg); !reflect.DeepEqual(replays, wantReplays) {
			t.Fatalf("%s: replays %v, want %v", step, replays, wantReplays)
		}
		if st := s.Stats(); st.Rebuilds != 1 {
			t.Fatalf("%s: Stats().Rebuilds = %d, want the replays %v", step, st.Rebuilds, wantReplays)
		}
		return got
	}
	const all = ^uint64(0)
	read("first third, drained", all, third)

	for round, lagging := range []int{1, 0} {
		lo, hi := third*(round+1), third*(round+2)
		if round == 1 {
			hi = len(conns)
		}
		shard := s.shards[lagging]
		release := holdBack(t, shard)
		feedBatches(t, s, nil, conns[lo:hi], 256)
		for i, e := range s.shards {
			if i != lagging {
				e.drain()
			}
		}
		// The frontier: what the held shard has applied, and never below
		// what an earlier read already merged.
		s.mu.Lock()
		shard.mu.Lock()
		frontier := max(shard.nextSeq, s.merged)
		shard.mu.Unlock()
		s.mu.Unlock()
		merges := reg.Counter("stream_merges_total", "").Value()
		// The other shards applied their share of the slice, all of it
		// above the frontier: the read must not move past what it had.
		read("a shard held back", frontier, lo)
		if reg.Counter("stream_merges_total", "").Value() != merges+1 {
			t.Fatal("the read with a shard held back did not run a catch-up")
		}
		release()
		s.Drain()
		read("the shard caught up", all, hi)
	}

	if !reflect.DeepEqual(s.Analysis(), core.Run(inputFromBuild(b))) {
		t.Error("after Drain the analysis differs from the batch pipeline's")
	}
	if reg.Counter("stream_merges_total", "").Value() <= 1 {
		t.Errorf("vacuous: every one of the merges was a replay (%v)", wantReplays)
	}
}

// shardedCatchUp builds an n-shard deployment whose window holds at
// least window connections (the build's, cycled), reads it, and then
// measures reads that each follow k further connections: how many
// connections the catch-up enriched and the fewest allocations one took.
func shardedCatchUp(t *testing.T, n, window, k int) (enriched, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newSharded(t, n, in, func(c *Config) { c.Metrics = reg })
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
		t.Fatalf("shards=%d window=%d: replays %v, want only the first read's", n, window, got)
	}
	return enriched, allocs
}

// shardedLateCert is shardedCatchUp for a certificate that comes after k
// connections presenting it as their client leaf, a read in between: what
// the read after the certificate enriched, re-enriched in place and, at
// the least, allocated.
func shardedLateCert(t *testing.T, n, window, k int) (st core.MergeStats, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newSharded(t, n, in, func(c *Config) { c.Metrics = reg })
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
		t.Fatalf("shards=%d window=%d: replays %v, want only the first read's", n, window, got)
	}
	if got := reg.Counter("stream_merge_late_conns_total", "").Value(); got != s.view.Stats().Late {
		t.Fatalf("shards=%d window=%d: stream_merge_late_conns_total = %d, the view re-enriched %d", n, window, got, s.view.Stats().Late)
	}
	return st, allocs
}

// TestShardedCatchUpIsODelta gates the sharded read's cost on counts: a
// read that follows k new connections enriches those and allocates the
// same, whether 5k or 50k connections are already merged; a read that
// follows a certificate k merged connections had named re-enriches those,
// enriches nothing and allocates the same behind 5k and behind 20k.
func TestShardedCatchUpIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	const k = 1000
	for _, n := range []int{2, 4} {
		smallN, smallA := shardedCatchUp(t, n, 5000, k)
		largeN, largeA := shardedCatchUp(t, n, 50000, k)
		t.Logf("shards=%d: a catch-up of %d enriched %d with %d allocs behind 5k, %d with %d allocs behind 50k",
			n, k, smallN, smallA, largeN, largeA)
		if smallN == 0 || smallN > k || smallN != largeN {
			t.Errorf("shards=%d: a catch-up of %d connections enriched %d behind 5k and %d behind 50k", n, k, smallN, largeN)
		}
		if smallA != largeA {
			t.Errorf("shards=%d: catch-up allocations depend on the window: %d behind 5k, %d behind 50k", n, smallA, largeA)
		}
		smallSt, smallA := shardedLateCert(t, n, 5000, k)
		largeSt, largeA := shardedLateCert(t, n, 20000, k)
		t.Logf("shards=%d: a certificate late for %d re-enriched %d with %d allocs behind 5k, %d with %d allocs behind 20k",
			n, k, smallSt.Late, smallA, largeSt.Late, largeA)
		for _, st := range []core.MergeStats{smallSt, largeSt} {
			if st.Late != k || st.Enriched != 0 {
				t.Errorf("shards=%d: a certificate late for %d connections re-enriched %d and enriched %d", n, k, st.Late, st.Enriched)
			}
		}
		if smallA != largeA {
			t.Errorf("shards=%d: late-certificate allocations depend on the window: %d behind 5k, %d behind 20k", n, smallA, largeA)
		}
	}
}

// TestParkedReportBlocksNothing: a report scan parked inside its fn holds
// no lock that ingestion or a health check needs — at one shard or two, a
// batch is applied, Drain returns and Stats answers
// (stale, with the parked read's one replay) while the scan is still out.
func TestParkedReportBlocksNothing(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			g := newSharded(t, n, in, nil)
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

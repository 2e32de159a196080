package distrib

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/race"
	"repro/internal/stream"
)

// aggReplays reads the merged view's replay counters back by reason.
func aggReplays(reg *metrics.Registry) map[core.ReplayReason]uint64 {
	out := map[core.ReplayReason]uint64{}
	for _, why := range core.ReplayReasons {
		if n := reg.Counter("distrib_merge_replays_total", "", "reason", string(why)).Value(); n > 0 {
			out[why] = n
		}
	}
	return out
}

// aggCatchUp syncs an aggregator with one sensor whose window holds at
// least window connections (the build's, cycled), reads it, and then
// measures reads that each follow a sync of k further connections: how
// many connections the catch-up enriched and the fewest allocations one
// took.
func aggCatchUp(t *testing.T, window, k int) (enriched, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certList(b), 0, len(b.Raw.Certs), 0, 0)
	for fed := 0; fed < window; fed += len(b.Raw.Conns) {
		e.IngestConnBatch(b.Raw.Conns)
	}
	reg := metrics.New()
	a := newAgg(t, b, reg, newSensorServer(t, e).URL)
	sync := func() {
		t.Helper()
		e.Drain()
		if err := a.SyncAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sync()
	a.WithPipeline(func(*core.Pipeline) {})
	allocs = ^uint64(0)
	for round := 0; round < 5; round++ {
		e.IngestConnBatch(b.Raw.Conns[:k])
		sync()
		before := a.view.Stats().Enriched
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		a.WithPipeline(func(*core.Pipeline) {})
		runtime.ReadMemStats(&m1)
		enriched = a.view.Stats().Enriched - before
		// The enriched-view slice doubles now and then; the cheapest round
		// is one that did not.
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
	}
	if got := aggReplays(reg); len(got) != 1 || got[core.ReplayFirst] != 1 {
		t.Fatalf("window=%d: replays %v, want only the first read's", window, got)
	}
	return enriched, allocs
}

// aggLateCert is aggCatchUp for a certificate synced after k connections
// presenting it as their client leaf, a read in between: what the read
// after the certificate enriched, re-enriched in place and, at the
// least, allocated.
func aggLateCert(t *testing.T, window, k int) (st core.MergeStats, allocs uint64) {
	t.Helper()
	b := genBuild(20240504, 3000)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certList(b), 0, len(b.Raw.Certs), 0, 0)
	for fed := 0; fed < window; fed += len(b.Raw.Conns) {
		e.IngestConnBatch(b.Raw.Conns)
	}
	reg := metrics.New()
	a := newAgg(t, b, reg, newSensorServer(t, e).URL)
	sync := func() {
		t.Helper()
		e.Drain()
		if err := a.SyncAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	allocs = ^uint64(0)
	for round := 0; round < 5; round++ {
		late := *b.Raw.Certs[b.Raw.Conns[0].ServerLeaf()]
		late.Fingerprint = ids.Fingerprint(fmt.Sprintf("late-client-%d", round))
		naming := slices.Clone(b.Raw.Conns[:k])
		for i := range naming {
			naming[i].ClientChain = []ids.Fingerprint{late.Fingerprint}
		}
		e.IngestConnBatch(naming)
		sync()
		a.WithPipeline(func(*core.Pipeline) {})
		e.IngestCert(&core.CertRecord{TS: late.NotBefore, Cert: &late})
		sync()
		before := a.view.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		a.WithPipeline(func(*core.Pipeline) {})
		runtime.ReadMemStats(&m1)
		st = a.view.Stats()
		st.Enriched, st.Late = st.Enriched-before.Enriched, st.Late-before.Late
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
	}
	if got := aggReplays(reg); len(got) != 1 || got[core.ReplayFirst] != 1 {
		t.Fatalf("window=%d: replays %v, want only the first read's", window, got)
	}
	return st, allocs
}

// TestAggregatorCatchUpIsODelta gates the aggregator read's cost on
// counts: a read that follows a sync of k new connections enriches those
// and allocates the same, whether 5k or 50k connections are already
// merged; a read that follows the sync of a certificate k merged
// connections had named re-enriches those, enriches nothing and allocates
// the same behind 5k and behind 20k.
func TestAggregatorCatchUpIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	const k = 1000
	smallN, smallA := aggCatchUp(t, 5000, k)
	largeN, largeA := aggCatchUp(t, 50000, k)
	t.Logf("a catch-up of %d enriched %d with %d allocs behind 5k, %d with %d allocs behind 50k",
		k, smallN, smallA, largeN, largeA)
	if smallN == 0 || smallN > k || smallN != largeN {
		t.Errorf("a catch-up of %d connections enriched %d behind 5k and %d behind 50k", k, smallN, largeN)
	}
	if smallA != largeA {
		t.Errorf("catch-up allocations depend on the window: %d behind 5k, %d behind 50k", smallA, largeA)
	}
	smallSt, smallA := aggLateCert(t, 5000, k)
	largeSt, largeA := aggLateCert(t, 20000, k)
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

// TestAggregatorParkedReportBlocksNothing: a report scan parked inside
// its fn does not hold up a sync landing or the stats a health check
// reads — the aggregator's third of the property stream's
// TestParkedReportBlocksNothing holds for an engine and a router.
func TestAggregatorParkedReportBlocksNothing(t *testing.T) {
	b := genBuild(20240504, 2000)
	certs := certList(b)
	e := newSensorEngine(t, b)
	a := newAgg(t, b, metrics.New(), newSensorServer(t, e).URL)
	half := len(b.Raw.Conns) / 2
	feedSlice(t, e, b, certs, 0, len(certs), 0, half)
	e.Drain()
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		a.WithPipeline(func(*core.Pipeline) { close(parked); <-release })
	}()
	<-parked
	feedSlice(t, e, b, certs, 0, 0, half, len(b.Raw.Conns))
	e.Drain()
	type result struct {
		st  stream.Stats
		err error
	}
	got := make(chan result, 1)
	go func() {
		err := a.SyncAll(context.Background())
		got <- result{a.Stats(), err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.st.ConnsIngested != uint64(len(b.Raw.Conns)) || r.st.Rebuilds != 1 || !r.st.Dirty {
			t.Errorf("Stats() beside the parked report = %d conns, %d rebuilds, dirty %v; want %d, 1, true",
				r.st.ConnsIngested, r.st.Rebuilds, r.st.Dirty, len(b.Raw.Conns))
		}
	case <-time.After(10 * time.Second):
		t.Error("a sync or Stats waited behind a parked report")
	}
	close(release)
	<-read
}

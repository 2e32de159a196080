package distrib

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
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

// TestAggregatorIncrementalMatchesRebuild reads the aggregator between
// delta rounds from two sensors and holds every read
// against a fresh MergeShards over the replicas as they stand: appending
// each sync's delta must equal replaying everything. A round that only
// brought new records never replays — a late certificate is patched into
// the connections that named it, and the forged leaves of the build's
// interception issuers, withheld until every connection they served is
// merged, take exactly those connections back out; a sensor back under a
// new epoch (410) and a full snapshot over existing state (since 0) each
// replay exactly once, for loss. At the end the incremental aggregator
// equals a fresh one that pulled everything in one snapshot per sensor,
// and one engine that saw the whole stream. It runs polled (SyncAll
// between rounds) and followed (Run in the background, each read waiting
// for the cursors), the latter with snapshots landing while the test
// feeds.
func TestAggregatorIncrementalMatchesRebuild(t *testing.T) {
	for _, mode := range syncModes {
		t.Run(mode.name, func(t *testing.T) { aggregatorIncrementalMatchesRebuild(t, mode.followed) })
	}
}

func aggregatorIncrementalMatchesRebuild(t *testing.T, followed bool) {
	b := genBuild(20240504, 1500)
	verdict := interception.NewDetector(b.Bundle, b.CT).Run(b.Raw)
	var certs, forged []*certmodel.CertInfo
	for _, c := range certList(b) {
		if verdict.ExcludedCerts[c.Fingerprint] {
			forged = append(forged, c)
		} else {
			certs = append(certs, c)
		}
	}
	var connsA, connsB []core.ConnRecord
	intercepted := uint64(0)
	for i := range b.Raw.Conns {
		if i%2 == 0 {
			connsA = append(connsA, b.Raw.Conns[i])
		} else {
			connsB = append(connsB, b.Raw.Conns[i])
		}
		if verdict.ExcludedCerts[b.Raw.Conns[i].ServerLeaf()] {
			intercepted++
		}
	}
	const rounds = 5
	// feed gives g round r of its connections, then — so that they arrive
	// late — half the certificates in each of the first two rounds.
	feed := func(g *stream.Engine, conns []core.ConnRecord, r int) {
		t.Helper()
		for i := len(conns) * r / rounds; i < len(conns)*(r+1)/rounds; i++ {
			if !g.IngestConn(&conns[i]) {
				t.Fatal("conn event rejected")
			}
		}
		if r < 2 {
			feedSlice(t, g, b, certs, len(certs)*r/2, len(certs)*(r+1)/2, 0, 0)
		}
	}
	e1 := newSensorEngine(t, b)
	swA := &swapExporter{exp: e1}
	sB := newSensorEngine(t, b)
	urls := []string{
		newSensorServer(t, swA).URL,
		newSensorServer(t, sB).URL,
	}
	reg := metrics.New()
	every := time.Hour // polled: the test drives every sync
	if followed {
		// A heartbeat and reconnect pacing that a sensor's restart and a
		// cursor reset below recover within.
		every = 50 * time.Millisecond
	}
	a := newAggEvery(t, b, reg, every, urls...)
	catchUp := syncer(t, a, followed)

	sensorA := e1
	reasons := map[core.ReplayReason]int{}
	// read syncs, reads, names the one reason the read replayed for (""
	// for a catch-up) and holds the analysis against a replay of the
	// replicas.
	read := func(step string, allowed ...core.ReplayReason) {
		t.Helper()
		catchUp(sensorA, sB)
		before, merges := aggReplays(reg), reg.Counter("distrib_merges_total", "").Value()
		got := a.Analysis()
		if n := reg.Counter("distrib_merges_total", "").Value() - merges; n != 1 {
			t.Fatalf("%s: the read ran %d merges, want 1", step, n)
		}
		var why core.ReplayReason
		for r, n := range aggReplays(reg) {
			if n != before[r] {
				if why != "" || n != before[r]+1 {
					t.Fatalf("%s: one read moved the replay counters from %v to %v", step, before, aggReplays(reg))
				}
				why = r
			}
		}
		if !slices.Contains(allowed, why) {
			t.Fatalf("%s: the read replayed for %q, want one of %q", step, why, allowed)
		}
		reasons[why]++
		c := a.capture(make([]core.MergeCursor, len(a.sensors))) // zero cursors: everything
		replay := core.MergeShards(a.cfg.Input, c.Shards, func(fp ids.Fingerprint) bool { return c.Verdict.ExcludedCerts[fp] })
		if !reflect.DeepEqual(got, replay.Pipeline(got.Preprocess).RunAll()) {
			t.Fatalf("%s: the read differs from a replay of the replicas", step)
		}
		if st := a.Stats(); st.Dirty || int(st.Rebuilds) != replayed(reasons) {
			t.Fatalf("%s: Stats() = %d rebuilds, dirty %v; replays so far %v", step, st.Rebuilds, st.Dirty, reasons)
		}
	}
	feed(e1, connsA, 0)
	feed(sB, connsB, 0)
	read("first read", core.ReplayFirst)
	for r := 1; r <= 2; r++ {
		feed(e1, connsA, r)
		feed(sB, connsB, r)
		read("delta round", "")
	}

	// Sensor A comes back under a new epoch holding the same records: 410,
	// discard, full re-sync.
	e2 := newSensorEngine(t, b)
	for r := 0; r <= 2; r++ {
		feed(e2, connsA, r)
	}
	swA.swap(e2)
	sensorA = e2
	read("sensor back under a new epoch", core.ReplayLost)
	if n := a.SensorStatuses()[0].FullResyncs; n != 1 {
		t.Fatalf("FullResyncs = %d, want 1", n)
	}

	feed(e2, connsA, 3)
	feed(sB, connsB, 3)
	read("delta round after the re-sync", "")

	// Sensor B is asked for everything again although its replica is
	// intact: the full snapshot replaces it. (Followed, B's open stream
	// fails on the moved cursor and its next pull asks from zero.)
	a.mu.Lock()
	a.sensors[1].cursor = 0
	a.mu.Unlock()
	read("full snapshot over existing state", core.ReplayLost)

	feed(e2, connsA, 4)
	feed(sB, connsB, 4)
	read("last delta round", "")
	if n := a.view.Stats().Retracted; n != 0 {
		t.Fatalf("%d connections taken back before any verdict", n)
	}
	feedSlice(t, e2, b, forged, 0, len(forged), 0, 0)
	feedSlice(t, sB, b, forged, 0, len(forged), 0, 0)
	read("the forged leaves, after the connections they served", "")

	if reasons[core.ReplayFirst] != 1 || reasons[core.ReplayLost] != 2 || reasons[core.ReplayOrder] != 0 {
		t.Errorf("replays by reason %v, want one first, two lost, no order", reasons)
	}
	if reasons[""] == 0 {
		t.Errorf("vacuous: no read was a catch-up (%v)", reasons)
	}
	late := reg.Counter("distrib_merge_late_conns_total", "").Value()
	if late == 0 || late != a.view.Stats().Late {
		t.Errorf("distrib_merge_late_conns_total = %d, the view re-enriched %d; want the same, and some", late, a.view.Stats().Late)
	}
	retracted := reg.Counter("distrib_merge_retracted_conns_total", "").Value()
	if retracted != a.view.Stats().Retracted || retracted != intercepted || retracted == 0 {
		t.Errorf("distrib_merge_retracted_conns_total = %d, the view took back %d; want the %d (some) connections the verdict excludes",
			retracted, a.view.Stats().Retracted, intercepted)
	}
	t.Logf("reads by replay reason: %v, %d connections re-enriched for a late certificate, %d taken back for a grown verdict", reasons, late, retracted)

	got := analysisJSON(t, a.Analysis())
	fresh := newAgg(t, b, nil, urls...)
	if err := fresh.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != analysisJSON(t, fresh.Analysis()) {
		t.Error("the incremental aggregator differs from a fresh one over the same sensors")
	}
	whole := newSensorEngine(t, b)
	feedSlice(t, whole, b, append(certs, forged...), 0, len(b.Raw.Certs), 0, len(b.Raw.Conns))
	whole.Drain()
	if got != analysisJSON(t, whole.Analysis()) {
		t.Error("the incremental aggregator differs from one engine over the whole stream")
	}
}

// replayed counts the reads that were replays, whatever the reason.
func replayed(reasons map[core.ReplayReason]int) int {
	n := 0
	for why, k := range reasons {
		if why != "" {
			n += k
		}
	}
	return n
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

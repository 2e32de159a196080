package distrib

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/metrics"
	"repro/internal/race"
	"repro/internal/stream"
)

// rebuildStats is the oracle for the sets maintained as syncs land,
// rebuilt per call: distinct roster fingerprints over every sensor, and
// the §3.2 verdict of a fresh union absorbing every sensor's whole
// evidence.
func rebuildStats(a *Aggregator) (unique, excluded, issuers, pending int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := map[ids.Fingerprint]bool{}
	m := interception.NewMerge(2)
	for _, ss := range a.sensors {
		for _, c := range ss.certs {
			seen[c.Fingerprint] = true
		}
		pending += ss.pending
		m.AbsorbEvidence(ss.evidence)
	}
	return len(seen), m.ExcludedCount(), m.ConfirmedCount(), pending
}

func checkAggUnion(t *testing.T, a *Aggregator, step string) stream.Stats {
	t.Helper()
	st := a.Stats()
	unique, excluded, issuers, pending := rebuildStats(a)
	if st.UniqueCerts != unique || st.ExcludedCerts != excluded || st.InterceptionIssuers != issuers || st.PendingCerts != pending {
		t.Fatalf("%s: Stats = %d certs / %d excluded / %d issuers / %d pending, rebuilt from the sensors = %d / %d / %d / %d",
			step, st.UniqueCerts, st.ExcludedCerts, st.InterceptionIssuers, st.PendingCerts, unique, excluded, issuers, pending)
	}
	return st
}

// TestAggregatorStatsUnionMatchesRebuild holds Aggregator.Stats to a
// from-scratch rebuild over what the sensors hold after every sync: over
// delta rounds from two sensors, across a sensor that
// comes back under a new epoch holding less than before (the union must
// shrink — the one thing absorbing cannot do), and once everything is
// re-fed, against one engine that saw the whole stream. Stats and Report
// run concurrently throughout, for the race detector — the reader's
// merged view catching up between syncs as they land. It runs polled and
// followed, as TestAggregatorIncrementalMatchesRebuild does.
func TestAggregatorStatsUnionMatchesRebuild(t *testing.T) {
	for _, mode := range syncModes {
		t.Run(mode.name, func(t *testing.T) { aggregatorStatsUnionMatchesRebuild(t, mode.followed) })
	}
}

func aggregatorStatsUnionMatchesRebuild(t *testing.T, followed bool) {
	b := genBuild(20240504, 1500)
	certs := certList(b)
	nCerts := len(certs)

	// The connections are dealt by server leaf, so each sensor is the
	// only witness of its leaves (a restart can then lose evidence the
	// other sensor does not also hold); both get every certificate, after
	// the connections that reference it, so evidence lands late.
	var connsA, connsB []core.ConnRecord
	for i := range b.Raw.Conns {
		rec := b.Raw.Conns[i]
		if fp := rec.ServerLeaf(); fp != "" && fp[len(fp)-1]%2 == 0 {
			connsA = append(connsA, rec)
		} else {
			connsB = append(connsB, rec)
		}
	}
	// feedPart feeds parts [from, to) of the given number of equal parts
	// of a sensor's connections and of the certificates.
	feedPart := func(g *stream.Engine, conns []core.ConnRecord, parts, from, to int) {
		t.Helper()
		for i := len(conns) * from / parts; i < len(conns)*to/parts; i++ {
			if !g.IngestConn(&conns[i]) {
				t.Fatal("conn event rejected")
			}
		}
		feedSlice(t, g, b, certs, nCerts*from/parts, nCerts*to/parts, 0, 0)
	}
	e1 := newSensorEngine(t, b)
	swA := &swapExporter{exp: e1}
	sB := newSensorEngine(t, b)
	reg := metrics.New()
	urls := []string{newSensorServer(t, swA).URL, newSensorServer(t, sB).URL}
	every := time.Hour // polled: the test drives every sync
	if followed {
		every = 50 * time.Millisecond // recovers from the restart below
	}
	a := newAggEvery(t, b, reg, every, urls...)
	catchUp := syncer(t, a, followed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, fn := range []func(){
		func() { a.Stats() },
		func() {
			if _, err := a.Report("preprocess"); err != nil {
				t.Error(err)
			}
		},
	} {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}(fn)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	syncAll := func(step string) stream.Stats {
		t.Helper()
		catchUp(swA.current().(*stream.Engine), sB)
		return checkAggUnion(t, a, step)
	}

	const rounds = 4
	var before stream.Stats
	for r := 0; r < rounds; r++ {
		feedPart(e1, connsA, rounds, r, r+1)
		feedPart(sB, connsB, rounds, r, r+1)
		before = syncAll("delta round")
	}
	if before.InterceptionIssuers == 0 || before.ExcludedCerts == 0 {
		t.Fatal("vacuous: the fleet confirmed no interception issuer")
	}

	// Sensor A loses its checkpoint and has re-tailed only a sliver of
	// its log by the next sync: new epoch, 410, full re-sync, and less
	// evidence than the aggregator had absorbed from it.
	e2 := newSensorEngine(t, b)
	feedPart(e2, connsA, 8, 0, 1)
	swA.swap(e2)
	after := syncAll("full re-sync onto less evidence")
	if a.SensorStatuses()[0].FullResyncs != 1 {
		t.Fatalf("FullResyncs = %d, want 1", a.SensorStatuses()[0].FullResyncs)
	}
	if after.ExcludedCerts >= before.ExcludedCerts {
		t.Fatalf("vacuous: the restarted sensor did not shrink the union (%d -> %d excluded)", before.ExcludedCerts, after.ExcludedCerts)
	}

	// It catches up; the fleet again equals one engine over everything.
	feedPart(e2, connsA, 8, 1, 8)
	got := syncAll("caught up")
	whole := newSensorEngine(t, b)
	feedSlice(t, whole, b, certs, 0, nCerts, 0, len(b.Raw.Conns))
	whole.Drain()
	want := whole.Stats()
	if got.UniqueCerts != want.UniqueCerts || got.ExcludedCerts != want.ExcludedCerts || got.InterceptionIssuers != want.InterceptionIssuers {
		t.Errorf("fleet Stats %d certs / %d excluded / %d issuers, one engine over the union %d / %d / %d",
			got.UniqueCerts, got.ExcludedCerts, got.InterceptionIssuers,
			want.UniqueCerts, want.ExcludedCerts, want.InterceptionIssuers)
	}
	pre, err := a.Report("preprocess")
	if err != nil {
		t.Fatal(err)
	}
	if p := pre.(*core.PreprocessReport); p.ExcludedCerts != got.ExcludedCerts || len(p.InterceptionIssuers) != got.InterceptionIssuers || p.RawCerts != got.UniqueCerts {
		t.Errorf("preprocess report %d certs / %d excluded / %d issuers disagrees with Stats %d / %d / %d",
			p.RawCerts, p.ExcludedCerts, len(p.InterceptionIssuers), got.UniqueCerts, got.ExcludedCerts, got.InterceptionIssuers)
	}
	// The concurrent reader merged between syncs all along: whatever it
	// replayed for, it never met a connection out of order.
	if replays := aggReplays(reg); replays[core.ReplayOrder] != 0 {
		t.Errorf("replays %v: arrival numbering leaves no order replay", replays)
	}
}

// aggStatsAllocs measures Aggregator.Stats over one synced sensor
// holding the campus workload at the given scale (larger = smaller).
func aggStatsAllocs(t *testing.T, scale int) (allocs float64, st stream.Stats) {
	t.Helper()
	b := genBuild(20240504, scale)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certList(b), 0, len(b.Raw.Certs), 0, len(b.Raw.Conns))
	e.Drain()
	a := newAgg(t, b, nil, newSensorServer(t, e).URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(100, func() { st = a.Stats() }), st
}

// TestAggregatorStatsAllocsFlat is the regression guard for the O(1)
// Stats: the allocation count must not depend on the roster or evidence
// held. Rebuilding per call fills a fresh fingerprint set and a fresh
// evidence union, so it grows with both.
func TestAggregatorStatsAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	small, stSmall := aggStatsAllocs(t, 12000)
	large, stLarge := aggStatsAllocs(t, 300)
	if stLarge.UniqueCerts < 10*stSmall.UniqueCerts || stLarge.ExcludedCerts < 10*stSmall.ExcludedCerts {
		t.Fatalf("sizes too close to show a slope: %d -> %d certs, %d -> %d excluded",
			stSmall.UniqueCerts, stLarge.UniqueCerts, stSmall.ExcludedCerts, stLarge.ExcludedCerts)
	}
	if small != large {
		t.Errorf("Aggregator.Stats allocates %.0f at %d certs / %d excluded but %.0f at %d / %d",
			small, stSmall.UniqueCerts, stSmall.ExcludedCerts, large, stLarge.UniqueCerts, stLarge.ExcludedCerts)
	}
}

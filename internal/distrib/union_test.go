package distrib

import (
	"context"
	"testing"

	"repro/internal/race"
	"repro/internal/stream"
)

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

package distrib_test

import (
	"testing"

	"repro/internal/oracle"
)

// The aggregated ≡ batch equalities are programs of the equivalence
// oracle (internal/oracle): sensors behind httptest servers, an
// aggregator syncing them, faults at chosen feed positions, and every
// report held to the batch pipeline. Each test below is one program or a
// few.

// N sensors holding disjoint connection slices, every certificate after
// its slice's connections, reproduce one engine over the union.
func TestAggregatorEquivalence(t *testing.T) {
	for _, n := range []string{"1", "2", "4"} {
		t.Run("sensors="+n, func(t *testing.T) {
			oracle.Test(t, "seed=1 scale=8000 sensors="+n+" order=conns-first ops=end")
		})
	}
}

// A disk-store sensor under a starved hot budget, synced in two deltas.
func TestAggregatorDiskStoreSensorEquivalence(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=2 store=disk order=conns-first ops=sync@500,end")
}

// Retention at the sensors and at the aggregator, which ages delta-shipped
// connections against the global watermark: one windowed engine over the
// union.
func TestAggregatorRetentionEquivalence(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=4 ret=7 ops=sync@500,end")
}

// Connections in one sync, their certificates in the next: full then
// delta, and an empty delta leaves the view clean.
func TestAggregatorDeltaSync(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=2 order=conns-first ops=sync@450,sync@550,end")
}

// A sensor restarted without its checkpoint answers the aggregator's
// cursor 410; the aggregator full-resyncs it (SensorStatus.FullResyncs).
func TestAggregatorFreshRestartFullResync(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=2 ops=sync@500,fresh.1,sync,end")
}

// syncs names the two ways an aggregator syncs: SyncAll, and Run
// following each sensor.
var syncs = map[string]string{"polled": "poll", "followed": "follow"}

// Reads between delta rounds from two sensors, one of them restarted
// fresh, polled and followed: appending each sync equals the model of
// what the sensors hold.
func TestAggregatorIncrementalMatchesRebuild(t *testing.T) {
	for mode, sync := range syncs {
		t.Run(mode, func(t *testing.T) {
			oracle.Test(t, "seed=1 scale=8000 sensors=2 split=rr order=chunk:64:128 sync="+sync+
				" ops=sync@200,sync@400,sync@600,fresh.0@700,sync@800,end")
		})
	}
}

// The aggregator's Stats against the fleet after every sync, across a
// sensor back under a new epoch holding less than before.
func TestAggregatorStatsUnionMatchesRebuild(t *testing.T) {
	for mode, sync := range syncs {
		t.Run(mode, func(t *testing.T) {
			oracle.Test(t, "seed=1 scale=8000 sensors=2 order=perm:3 sync="+sync+
				" ops=sync@250,sync@500,fresh.1@600,sync@750,end")
		})
	}
}

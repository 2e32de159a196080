package stream

import (
	"testing"

	"repro/internal/race"
)

// TestIngestBatchAllocGate pins the allocation budget of batched ingest,
// end to end: the router's copy into a pooled batch, the channel hop, and
// the apply loop folding events into the window (AllocsPerRun counts
// process-wide, so the apply goroutine's work is included). Two budgets,
// both per event over 512-event batches. Warm — the roster is admitted, the window's arrays and the
// detector's maps are grown, which is how a long-lived daemon spends
// almost all of its time — a batch costs the Drain barrier's channel and
// nothing per event. Cold — a fresh engine fed the whole build — pays for
// growth: the roster and its index, the window, detector evidence. The
// seed's per-event path spent >10 allocations per event; the gates sit
// just above what is measured so a regression (a dropped pool, a
// per-event box, a heap object per fingerprint) cannot hide.
func TestIngestBatchAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}

	b := genBuild(20240504, 1200)
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)
	feedAll := func(e *Engine) {
		if got := e.IngestCertBatch(certs); got != len(certs) {
			t.Fatalf("cert feed accepted %d of %d", got, len(certs))
		}
		for lo := 0; lo < len(b.Raw.Conns); lo += 512 {
			e.IngestConnBatch(b.Raw.Conns[lo:min(lo+512, len(b.Raw.Conns))])
		}
		e.Drain()
	}

	cold := testing.AllocsPerRun(3, func() {
		e, err := New(Config{Input: in})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(e)
		e.Close()
	})
	if perEvent := cold / float64(len(certs)+len(b.Raw.Conns)); perEvent > 0.3 {
		t.Errorf("cold ingest: %.3f allocs/event (%.0f over the build), want <= 0.3", perEvent, cold)
	}

	e := newEngine(t, in, nil)
	feedAll(e)
	const batchSize = 512
	if len(b.Raw.Conns) < batchSize {
		t.Fatalf("workload too small: %d conns", len(b.Raw.Conns))
	}
	batch := b.Raw.Conns[:batchSize]
	perBatch := testing.AllocsPerRun(50, func() {
		if got := e.IngestConnBatch(batch); got != batchSize {
			t.Fatalf("batch accepted %d of %d", got, batchSize)
		}
		e.Drain()
	})
	if perBatch > 4 {
		t.Errorf("warm ingest: %.0f allocs per %d-event batch, want <= 4", perBatch, batchSize)
	}
	t.Logf("cold %.3f allocs/event, warm %.0f allocs per %d-event batch", cold/float64(len(certs)+len(b.Raw.Conns)), perBatch, batchSize)
}

package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// event is one ingest-queue entry: a batch of records or a flush
// barrier. enq stamps when the router enqueued it, so the apply loop can
// observe queue latency.
type event struct {
	batch *batch
	flush chan struct{}
	enq   time.Time
}

// shard is one apply loop and the raw state it owns: its window — the
// retained connections hashed to it — and its checkpoint chain. A shard is
// always fed by its Engine's router — every record arrives validated and
// stamped with a deployment-wide sequence; the certificate roster and the
// §3.2 detector are the router's — and never read directly: it enriches
// nothing and materializes nothing, the Engine's merged view reads every
// shard's suffix instead.
type shard struct {
	cfg  Config
	ch   chan event
	done chan struct{}

	sendMu  sync.RWMutex // guards closed + ch against Close
	closed  bool
	dropped atomic.Uint64

	m *shardMetrics

	mu sync.Mutex // guards all state below

	// stateVer counts report-visible state changes (connection applies,
	// evictions, restores). The merged view reads it without the state
	// lock to decide whether what it materialized is still current;
	// written only under mu.
	stateVer atomic.Uint64

	// st is the raw state — ground truth, never invalidated: the retained
	// connection window, every record under its sequence.
	st *store.Window

	// nextSeq is one past the last connection sequence applied; it trails
	// the router's stamps.
	nextSeq uint64

	connsIngested uint64
	evicted       uint64
	sinceEvict    int
	watermark     time.Time
	lastCkpt      time.Time

	// Checkpoint bookkeeping (still under mu), against this shard's chain:
	// sequences below ckptMark are covered by committed segments;
	// ckptCutoff is the latest eviction cutoff applied, which a delta
	// records so restore can replay the eviction against earlier segments.
	ckptMark   uint64
	ckptCutoff time.Time
}

// newShard starts a shard's apply loop over empty state.
func newShard(cfg Config) (*shard, error) {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.EvictEvery <= 0 {
		cfg.EvictEvery = 1024
	}
	st, err := store.Open(cfg.Store, cfg.StoreDir, cfg.HotBytes)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	e := &shard{
		cfg:  cfg,
		ch:   make(chan event, cfg.Buffer),
		done: make(chan struct{}),
		st:   st,
	}
	e.m = newShardMetrics(cfg.Metrics, e)
	go e.run()
	return e, nil
}

// send enqueues ev unless the shard is closed. A non-blocking send
// (Policy Drop; only batches travel that way) that finds the buffer full
// sheds the batch, counting its connection events in Stats.Dropped.
func (e *shard) send(ev event, block bool) bool {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.closed {
		return false
	}
	if block {
		e.ch <- ev
		return true
	}
	select {
	case e.ch <- ev:
		return true
	default:
		n := uint64(len(ev.batch.conns))
		e.dropped.Add(n)
		e.m.dropped.Add(n)
		return false
	}
}

// drain blocks until every batch sent before the call has been applied.
// It is never dropped, regardless of policy.
func (e *shard) drain() {
	done := make(chan struct{})
	if !e.send(event{flush: done}, true) {
		return
	}
	<-done
}

// close drains the queue and stops the apply loop; further sends are
// refused.
func (e *shard) close() {
	e.sendMu.Lock()
	if e.closed {
		e.sendMu.Unlock()
		return
	}
	e.closed = true
	close(e.ch)
	e.sendMu.Unlock()
	<-e.done
}

// run is the single apply goroutine. It batches queued events under one
// lock acquisition to keep lock churn off the hot path.
func (e *shard) run() {
	defer close(e.done)
	ch := e.ch // read once: the loop owns this queue for life
	for ev := range ch {
		e.mu.Lock()
		e.applyLocked(ev)
	drain:
		for i := 0; i < 256; i++ {
			select {
			case next, ok := <-ch:
				if !ok {
					e.mu.Unlock()
					return
				}
				e.applyLocked(next)
			default:
				break drain
			}
		}
		e.mu.Unlock()
	}
}

func (e *shard) applyLocked(ev event) {
	if ev.flush != nil {
		close(ev.flush)
		return
	}
	e.m.applyLatency.Since(ev.enq)
	e.applyBatchLocked(ev.batch)
}

// applyConnLocked admits one connection under the router's sequence: it
// is retained raw (the window every report is materialized from).
func (e *shard) applyConnLocked(rec *core.ConnRecord, seq uint64) {
	e.connsIngested++
	e.m.connsIngested.Inc()
	e.stateVer.Add(1)
	if rec.TS.After(e.watermark) {
		e.watermark = rec.TS
	}
	e.nextSeq = seq + 1
	e.st.AppendConn(rec, seq)

	if e.cfg.Retention > 0 {
		e.sinceEvict++
		if e.sinceEvict >= e.cfg.EvictEvery {
			e.sinceEvict = 0
			e.evictLocked()
		}
	}
	e.m.retained.Set(float64(e.st.ConnCount()))
}

// evictLocked drops connections that fell out of the retention window.
// The store allocates fresh backing arrays because enriched views hold
// pointers into the old ones. The cutoff is remembered so the next
// checkpoint delta can replay the eviction on restore.
func (e *shard) evictLocked() {
	defer e.m.evictDur.Since(time.Now())
	cutoff := e.watermark.Add(-e.cfg.Retention)
	dropped := uint64(e.st.EvictBefore(cutoff))
	if dropped == 0 {
		return
	}
	if cutoff.After(e.ckptCutoff) {
		e.ckptCutoff = cutoff
	}
	e.evicted += dropped
	e.m.evicted.Add(dropped)
	e.stateVer.Add(1)
}

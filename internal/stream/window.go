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

// window is the apply loop and the raw state it owns: the retained
// connections and their checkpoint chain. It is always fed by its
// Engine's router — every record arrives validated and stamped with the
// deployment's sequence; the certificate roster and the §3.2 detector are
// the router's — and never read directly: it enriches nothing and
// materializes nothing, the Engine's merged view reads its suffix instead.
type window struct {
	cfg  Config
	ch   chan event
	done chan struct{}

	sendMu  sync.RWMutex // guards closed + ch against Close
	closed  bool
	dropped atomic.Uint64

	m *engineMetrics

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

	// Checkpoint bookkeeping (still under mu): sequences below ckptMark
	// are covered by committed segments; ckptCutoff is the latest eviction
	// cutoff applied, which a delta records so restore can replay the
	// eviction against earlier segments.
	ckptMark   uint64
	ckptCutoff time.Time
}

// newWindow starts the apply loop over an empty window, registering the
// engine's series in cfg.Metrics.
func newWindow(cfg Config) (*window, error) {
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
	w := &window{
		cfg:  cfg,
		ch:   make(chan event, cfg.Buffer),
		done: make(chan struct{}),
		st:   st,
	}
	w.m = newEngineMetrics(cfg.Metrics, w)
	go w.run()
	return w, nil
}

// send enqueues ev unless the window is closed. A non-blocking send
// (Policy Drop; only batches travel that way) that finds the buffer full
// sheds the batch, counting its connection events in Stats.Dropped.
func (w *window) send(ev event, block bool) bool {
	w.sendMu.RLock()
	defer w.sendMu.RUnlock()
	if w.closed {
		return false
	}
	if block {
		w.ch <- ev
		return true
	}
	select {
	case w.ch <- ev:
		return true
	default:
		n := uint64(len(ev.batch.conns))
		w.dropped.Add(n)
		w.m.dropped.Add(n)
		return false
	}
}

// drain blocks until every batch sent before the call has been applied.
// It is never dropped, regardless of policy.
func (w *window) drain() {
	done := make(chan struct{})
	if !w.send(event{flush: done}, true) {
		return
	}
	<-done
}

// close drains the queue and stops the apply loop; further sends are
// refused.
func (w *window) close() {
	w.sendMu.Lock()
	if w.closed {
		w.sendMu.Unlock()
		return
	}
	w.closed = true
	close(w.ch)
	w.sendMu.Unlock()
	<-w.done
}

// run is the single apply goroutine. It batches queued events under one
// lock acquisition to keep lock churn off the hot path.
func (w *window) run() {
	defer close(w.done)
	ch := w.ch // read once: the loop owns this queue for life
	for ev := range ch {
		w.mu.Lock()
		w.applyLocked(ev)
	drain:
		for i := 0; i < 256; i++ {
			select {
			case next, ok := <-ch:
				if !ok {
					w.mu.Unlock()
					return
				}
				w.applyLocked(next)
			default:
				break drain
			}
		}
		w.mu.Unlock()
	}
}

func (w *window) applyLocked(ev event) {
	if ev.flush != nil {
		close(ev.flush)
		return
	}
	w.m.applyLatency.Since(ev.enq)
	w.applyBatchLocked(ev.batch)
}

// applyConnLocked admits one connection under the router's sequence: it
// is retained raw (the window every report is materialized from).
func (w *window) applyConnLocked(rec *core.ConnRecord, seq uint64) {
	w.connsIngested++
	w.m.connsIngested.Inc()
	w.stateVer.Add(1)
	if rec.TS.After(w.watermark) {
		w.watermark = rec.TS
	}
	w.nextSeq = seq + 1
	w.st.AppendConn(rec, seq)

	if w.cfg.Retention > 0 {
		w.sinceEvict++
		if w.sinceEvict >= w.cfg.EvictEvery {
			w.sinceEvict = 0
			w.evictLocked()
		}
	}
	w.m.retained.Set(float64(w.st.ConnCount()))
}

// evictLocked drops connections that fell out of the retention window.
// The store allocates fresh backing arrays because enriched views hold
// pointers into the old ones. The cutoff is remembered so the next
// checkpoint delta can replay the eviction on restore.
func (w *window) evictLocked() {
	defer w.m.evictDur.Since(time.Now())
	cutoff := w.watermark.Add(-w.cfg.Retention)
	dropped := uint64(w.st.EvictBefore(cutoff))
	if dropped == 0 {
		return
	}
	if cutoff.After(w.ckptCutoff) {
		w.ckptCutoff = cutoff
	}
	w.evicted += dropped
	w.m.evicted.Add(dropped)
	w.stateVer.Add(1)
}

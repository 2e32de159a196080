// Package store holds the retained connection window — the unbounded
// dimension of a long-running monitor — as one concrete type, Window.
// Everything that retains connections holds one: stream.Engine for its
// raw state, the aggregator for each sensor's replica. (The certificate
// roster is not here: it is the small, deduplicated side of the dataset
// and stays resident in its owner.)
//
// A Window is an append-only hot tail in RAM with abandon-don't-mutate
// eviction: appends never touch elements below a previously observed
// length and eviction swaps in fresh arrays, so slice headers
// snapshotted under the owner's lock stay valid after it is released.
//
// Open with kind "disk" adds the optional cold tier: the hot tail is
// held under an estimated byte budget and the older remainder spills to
// an append-only segment file, addressed by an in-memory index, so the
// window can exceed the budget by an order of magnitude while
// steady-state ingest RSS stays bounded. Without it a Window never
// estimates bytes, never spills, and Snapshot returns live headers.
//
// Sequences: every appended connection carries a caller-assigned
// sequence number, and the window requires them strictly increasing in
// append order (gaps are fine — certificates consume numbers from the
// same space). Eviction removes records but never renumbers, so
// "sequence >= s" always identifies a suffix of the window; Snapshot is
// the one query over it, serving checkpoint deltas and export cursors
// alike.
//
// Concurrency: a Window is accessed only under its owner's state lock
// and needs no locking of its own, except for the Stats counters, which
// metric callbacks read lock-free.
package store

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Stats is the window's tier occupancy and traffic, read lock-free by
// metric gauges (all fields are atomics updated on the owner's apply
// path). Without a cold tier only HotConns moves.
type Stats struct {
	HotConns  atomic.Int64
	ColdConns atomic.Int64
	HotBytes  atomic.Int64 // estimated bytes of hot connections
	Spills    atomic.Uint64
	Loads     atomic.Uint64
}

// Window is the retained connection window. The zero value is an empty
// window without a cold tier. All methods except Stats must be called
// under the owner's state lock.
type Window struct {
	// Hot tail in append order (the whole window without a cold tier);
	// seqs aligns with conns and is strictly increasing.
	conns []core.ConnRecord
	seqs  []uint64
	// next is one past the highest sequence ever appended; eviction does
	// not lower it.
	next  uint64
	cold  *coldTier // nil unless opened with kind "disk"
	stats Stats
}

// Open builds a window from the engine configuration triple: kind is ""
// or "memory" (default) or "disk"; dir and hotBytes apply to "disk".
func Open(kind, dir string, hotBytes int64) (*Window, error) {
	switch kind {
	case "", "memory":
		return new(Window), nil
	case "disk":
		if dir == "" {
			return nil, fmt.Errorf("store: disk store requires a directory")
		}
		cold, err := openCold(dir, hotBytes)
		if err != nil {
			return nil, err
		}
		return &Window{cold: cold}, nil
	default:
		return nil, fmt.Errorf("store: unknown store kind %q (want memory or disk)", kind)
	}
}

// AppendConn retains one connection (copied) under seq, which must
// exceed every sequence appended before.
func (w *Window) AppendConn(rec *core.ConnRecord, seq uint64) {
	if seq < w.next {
		panic(fmt.Sprintf("store: sequence %d appended after %d", seq, w.next-1))
	}
	w.next = seq + 1
	w.conns = append(w.conns, *rec)
	w.seqs = append(w.seqs, seq)
	w.stats.HotConns.Store(int64(len(w.conns)))
	if w.cold != nil {
		w.cold.hotB += connBytes(rec)
		w.stats.HotBytes.Store(w.cold.hotB)
		w.maybeSpill()
	}
}

// GrowConns ensures room for n more appends (batch ingest), at least
// doubling the backing arrays when they must reallocate — append's
// sub-doubling growth regime for large slices costs ~4x the final size
// in copy churn on a multi-megabyte retained window.
func (w *Window) GrowConns(n int) {
	w.conns = grown(w.conns, n)
	w.seqs = grown(w.seqs, n)
}

// grown ensures room for n more elements, at least doubling on
// reallocation.
func grown[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	c := 2 * cap(s)
	if c < len(s)+n {
		c = len(s) + n
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// ConnCount is the retained window size.
func (w *Window) ConnCount() int {
	if w.cold != nil {
		return len(w.cold.index) + len(w.conns)
	}
	return len(w.conns)
}

// EvictBefore drops retained records with TS before cutoff and returns
// how many were dropped. The hot tail is filtered into fresh backing
// arrays: enriched views and snapshots hold pointers into the old ones,
// which must stay intact.
func (w *Window) EvictBefore(cutoff time.Time) int {
	dropped := 0
	if w.cold != nil {
		dropped = w.cold.evictBefore(cutoff)
	}
	first := 0 // the first hot record to drop; nothing to copy if none
	for first < len(w.conns) && !w.conns[first].TS.Before(cutoff) {
		first++
	}
	if first < len(w.conns) {
		kept := append(make([]core.ConnRecord, 0, len(w.conns)-1), w.conns[:first]...)
		keptSeqs := append(make([]uint64, 0, len(w.conns)-1), w.seqs[:first]...)
		for i := first + 1; i < len(w.conns); i++ {
			if !w.conns[i].TS.Before(cutoff) {
				kept = append(kept, w.conns[i])
				keptSeqs = append(keptSeqs, w.seqs[i])
			}
		}
		dropped += len(w.conns) - len(kept)
		w.conns, w.seqs = kept, keptSeqs
	}
	if dropped > 0 {
		w.publish()
	}
	return dropped
}

// publish refreshes the occupancy gauges after the tiers changed shape
// (spill, eviction), re-estimating the hot bytes when they are budgeted.
func (w *Window) publish() {
	w.stats.HotConns.Store(int64(len(w.conns)))
	if w.cold == nil {
		return
	}
	w.cold.hotB = 0
	for i := range w.conns {
		w.cold.hotB += connBytes(&w.conns[i])
	}
	w.stats.HotBytes.Store(w.cold.hotB)
	w.stats.ColdConns.Store(int64(len(w.cold.index)))
}

// Snapshot is a point-in-time view of the retained records with
// sequence >= seq (0: the whole window) and their aligned sequences — the
// suffix appended since a cursor that survived eviction — for the merged
// view's catch-up, full checkpoints and exports. Without a cold tier
// the slices are live headers — a binary search, no copy — and safe after
// the owner's lock is released: appends past the captured length are
// invisible and eviction swaps in fresh arrays. With one they are fresh
// copies, spilled records streamed up from disk ahead of the hot tail —
// O(records returned) RAM for as long as the caller holds them, the
// tiered engine's documented materialization cost.
func (w *Window) Snapshot(seq uint64) ([]core.ConnRecord, []uint64) {
	if w.cold == nil {
		i, _ := slices.BinarySearch(w.seqs, seq)
		return w.conns[i:], w.seqs[i:]
	}
	// Sized once from the two tiers' counts past seq: the walk below runs
	// under the owner's lock and must not spend it regrowing slices. Each
	// spilled frame is decoded once through the cache.
	hot, _ := slices.BinarySearch(w.seqs, seq)
	cold := w.cold.index[w.cold.search(seq):]
	n := len(w.conns) - hot + len(cold)
	conns := make([]core.ConnRecord, 0, n)
	seqs := make([]uint64, 0, n)
	for _, cc := range cold {
		conns, seqs = append(conns, w.frame(cc.off)[cc.idx]), append(seqs, cc.seq)
	}
	return append(conns, w.conns[hot:]...), append(seqs, w.seqs[hot:]...)
}

// Tiered reports whether Snapshot returns copies (true) rather than
// headers over the live arrays.
func (w *Window) Tiered() bool { return w.cold != nil }

// Stats exposes tier occupancy for metrics.
func (w *Window) Stats() *Stats { return &w.stats }

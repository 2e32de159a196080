// Package store is the state layer behind stream.Engine's retained
// connection window — the unbounded dimension of a long-running monitor.
// The window lives behind the Store interface, so the engine's
// ingest/rebuild/checkpoint logic is independent of where connection
// records physically sit. (The certificate roster is not here: it is the
// small, deduplicated side of the dataset and stays resident in the
// engine.) Two implementations:
//
//   - Mem is the default and preserves the engine's historical
//     semantics exactly — append-only slices with abandon-don't-mutate
//     eviction, so slice headers snapshotted under the engine lock stay
//     valid after it is released.
//   - Disk keeps a bounded hot tail of connections in RAM and spills
//     the older remainder to an append-only segment file under a
//     directory, with an in-memory index, so the retained window can
//     exceed the hot budget by an order of magnitude while steady-state
//     ingest RSS stays bounded.
//
// Concurrency: a Store is owned by one engine and accessed only under
// that engine's state lock; implementations need no internal locking
// except for the Stats counters, which are read lock-free by metric
// callbacks.
//
// Slots: every appended connection gets a monotone, never-reused slot
// number. Eviction removes records but never renumbers, so "slot >=
// mark" identifies exactly the records appended since mark — the delta
// an incremental checkpoint serializes. Slots are an in-memory notion
// only; nothing on disk depends on them.
package store

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Snap is a point-in-time view of the full retained window, used by the
// sharded merge and full checkpoints. For Mem the slices are live
// headers (safe after the engine lock is released: appends past the
// captured length are invisible and eviction swaps in fresh arrays); for
// Disk they are freshly materialized copies.
type Snap struct {
	// Conns is the retained window in append order; Seqs aligns with it
	// when the store tracks sequences (nil otherwise).
	Conns []core.ConnRecord
	Seqs  []uint64
}

// Stats is the store's tier occupancy and traffic, read lock-free by
// metric gauges (all fields are atomics updated by the owning engine's
// apply path).
type Stats struct {
	HotConns  atomic.Int64
	ColdConns atomic.Int64
	HotBytes  atomic.Int64 // estimated bytes of hot connections
	Spills    atomic.Uint64
	Loads     atomic.Uint64
}

// Store is the engine's retained connection window. All methods except
// Stats must be called under the owning engine's state lock.
type Store interface {
	// AppendConn retains one connection (copied) with its sequence
	// stamp and returns the stored record. The pointer is valid at
	// least until the next append/evict; callers that must retain it
	// (the in-memory builder) may do so only on a non-tiered store.
	AppendConn(rec *core.ConnRecord, seq uint64) *core.ConnRecord
	// GrowConns pre-grows for n more appends (batch ingest).
	GrowConns(n int)
	// ConnCount is the retained window size.
	ConnCount() int
	// NextSlot is the slot the next append will receive; all retained
	// records have slots below it.
	NextSlot() uint64
	// ConnsSince returns fresh copies of the retained records with
	// slot >= mark (the suffix appended since mark survived eviction),
	// with their aligned sequence stamps.
	ConnsSince(mark uint64) ([]core.ConnRecord, []uint64)
	// Conns iterates the retained window in append order until fn
	// returns false. seq is zero when sequences are untracked. On a
	// non-tiered store the pointer is into the live backing array and
	// may be retained under the abandon-don't-mutate discipline; on a
	// tiered store it is a decoded copy that fn may also retain (the
	// store never reuses decoded buffers), at the cost of pinning the
	// copy's frame.
	Conns(fn func(rec *core.ConnRecord, seq uint64) bool)
	// EvictBefore drops retained records with TS before cutoff and
	// returns how many were dropped.
	EvictBefore(cutoff time.Time) int

	// Snapshot materializes the full retained window.
	Snapshot() Snap
	// Tiered reports whether records can move under the caller's feet —
	// i.e. whether pointers returned by AppendConn are stable for the
	// store's lifetime (false) or only transiently (true).
	Tiered() bool
	// Stats exposes tier occupancy for metrics.
	Stats() *Stats
	// Close releases any files. State already materialized remains
	// usable; further mutation does not.
	Close() error
}

// Open builds a store from the engine configuration triple: kind is ""
// or "memory" (default) or "disk"; dir and hotBytes apply to "disk".
// trackSeqs selects whether the store maintains the aligned sequence
// column.
func Open(kind, dir string, hotBytes int64, trackSeqs bool) (Store, error) {
	switch kind {
	case "", "memory":
		return NewMem(trackSeqs), nil
	case "disk":
		if dir == "" {
			return nil, fmt.Errorf("store: disk store requires a directory")
		}
		return OpenDisk(dir, hotBytes, trackSeqs)
	default:
		return nil, fmt.Errorf("store: unknown store kind %q (want memory or disk)", kind)
	}
}

package store

import (
	"time"

	"repro/internal/core"
)

// Mem is the default store: the engine's historical in-RAM state,
// verbatim. Connections live in one append-only slice (at-least-doubling
// growth via GrowConns) and eviction filters into a fresh backing array so
// pointers handed out earlier stay valid for whoever retained them.
// Snapshot returns live slice headers — the abandon-don't-mutate
// discipline makes them safe to read after the engine lock is released,
// which the sharded merge depends on.
type Mem struct {
	conns []core.ConnRecord
	// seqs aligns with conns when tracked (nil otherwise); slots always
	// aligns with conns and is monotone increasing, so the records
	// appended since a checkpoint mark form a suffix.
	seqs     []uint64
	slots    []uint64
	nextSlot uint64
	tracked  bool
	stats    Stats
}

// NewMem returns an empty in-memory store. trackSeqs selects whether
// the aligned sequence column is maintained.
func NewMem(trackSeqs bool) *Mem { return &Mem{tracked: trackSeqs} }

func (m *Mem) AppendConn(rec *core.ConnRecord, seq uint64) *core.ConnRecord {
	m.conns = append(m.conns, *rec)
	if m.tracked {
		m.seqs = append(m.seqs, seq)
	}
	m.slots = append(m.slots, m.nextSlot)
	m.nextSlot++
	m.stats.HotConns.Store(int64(len(m.conns)))
	return &m.conns[len(m.conns)-1]
}

// GrowConns ensures room for n more appends, at least doubling the
// backing arrays when they must reallocate — append's sub-doubling
// growth regime for large slices costs ~4x the final size in copy
// churn on a multi-megabyte retained window.
func (m *Mem) GrowConns(n int) {
	m.conns = grown(m.conns, n)
	if m.tracked {
		m.seqs = grown(m.seqs, n)
	}
	m.slots = grown(m.slots, n)
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

func (m *Mem) ConnCount() int { return len(m.conns) }

func (m *Mem) NextSlot() uint64 { return m.nextSlot }

func (m *Mem) ConnsSince(mark uint64) ([]core.ConnRecord, []uint64) {
	i := suffixAt(m.slots, mark)
	if i == len(m.conns) {
		return nil, nil
	}
	conns := append([]core.ConnRecord(nil), m.conns[i:]...)
	var seqs []uint64
	if m.tracked {
		seqs = append([]uint64(nil), m.seqs[i:]...)
	}
	return conns, seqs
}

// suffixAt returns the index of the first slot >= mark (slots are
// monotone increasing).
func suffixAt(slots []uint64, mark uint64) int {
	lo, hi := 0, len(slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if slots[mid] < mark {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Conns iterates the retained window in append order, passing pointers
// into the live backing array.
func (m *Mem) Conns(fn func(rec *core.ConnRecord, seq uint64) bool) {
	for i := range m.conns {
		var seq uint64
		if m.tracked {
			seq = m.seqs[i]
		}
		if !fn(&m.conns[i], seq) {
			return
		}
	}
}

// EvictBefore filters into fresh backing arrays: enriched views and
// snapshots hold pointers into the old ones, which must stay intact.
func (m *Mem) EvictBefore(cutoff time.Time) int {
	kept := make([]core.ConnRecord, 0, len(m.conns))
	keptSlots := make([]uint64, 0, len(m.slots))
	var keptSeqs []uint64
	if m.tracked {
		keptSeqs = make([]uint64, 0, len(m.seqs))
	}
	for i := range m.conns {
		if !m.conns[i].TS.Before(cutoff) {
			kept = append(kept, m.conns[i])
			keptSlots = append(keptSlots, m.slots[i])
			if m.tracked {
				keptSeqs = append(keptSeqs, m.seqs[i])
			}
		}
	}
	dropped := len(m.conns) - len(kept)
	if dropped == 0 {
		return 0
	}
	m.conns, m.slots, m.seqs = kept, keptSlots, keptSeqs
	m.stats.HotConns.Store(int64(len(m.conns)))
	return dropped
}

func (m *Mem) Snapshot() Snap { return Snap{Conns: m.conns, Seqs: m.seqs} }

func (m *Mem) Tiered() bool { return false }

func (m *Mem) Stats() *Stats { return &m.stats }

func (m *Mem) Close() error { return nil }

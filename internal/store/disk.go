package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
)

// DefaultHotBytes is the hot-tier budget when the caller passes none.
const DefaultHotBytes = 64 << 20

// spillChunk is how many records one spill frame carries: big enough to
// amortize the per-frame gob type descriptors, small enough that the
// one-frame decode cache stays kilobytes.
const spillChunk = 512

// Disk is the tiered store: a hot tail of connections in RAM under an
// estimated byte budget, and the older remainder spilled to an
// append-only segment file (conns.seg) under dir, addressed by an
// in-memory index. The file is scratch, not a durability layer — nothing
// is fsynced and it is truncated on open; crash durability is the
// checkpoint's job. Spilled space is never reclaimed in place (eviction
// only drops index entries); a long-running daemon bounds that growth
// with its checkpoint-restart cycle or a generous disk.
//
// Tier invariant the rest of the file depends on: every cold
// connection's slot is below every hot connection's slot (spills always
// take the oldest hot prefix), so cold+hot concatenates in slot order.
type Disk struct {
	budget  int64
	tracked bool
	stats   Stats

	// Hot connection tail, append order, slot-aligned.
	hot      []core.ConnRecord
	hotSeqs  []uint64
	hotSlots []uint64
	hotB     int64 // estimated bytes of hot conns

	cold    []coldConn // slot-ascending index over conns.seg
	connSeg *os.File
	connOff int64

	nextSlot uint64

	// One-frame decode cache: sequential readers (snapshots, restores)
	// touch consecutive index entries that share a frame.
	cacheOff   int64
	cacheConns []core.ConnRecord
	cacheSeqs  []uint64
	cacheSlots []uint64
}

// coldConn locates one spilled, still-retained connection: enough to
// evict and sort without touching disk, plus the frame that holds it.
type coldConn struct {
	slot, seq uint64
	ts        int64 // UnixNano, for eviction
	off       int64 // frame offset in conns.seg
}

// connSpill is the gob payload of one connection spill frame.
type connSpill struct {
	Conns []core.ConnRecord
	Seqs  []uint64
	Slots []uint64
}

const frameConnSpill byte = 1

// OpenDisk creates a tiered store under dir (recreated — segments are
// scratch, not state to recover). hotBytes <= 0 selects DefaultHotBytes.
func OpenDisk(dir string, hotBytes int64, trackSeqs bool) (*Disk, error) {
	if hotBytes <= 0 {
		hotBytes = DefaultHotBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	connSeg, err := os.OpenFile(filepath.Join(dir, "conns.seg"), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Disk{budget: hotBytes, tracked: trackSeqs, connSeg: connSeg, cacheOff: -1}, nil
}

// connBytes estimates a record's resident size: struct plus string and
// chain payloads. Precision is irrelevant — the estimate only paces
// spilling.
func connBytes(r *core.ConnRecord) int64 {
	n := 160 + len(r.UID) + len(r.OrigIP) + len(r.RespIP) + len(r.Version) + len(r.SNI)
	for _, fp := range r.ServerChain {
		n += 16 + len(fp)
	}
	for _, fp := range r.ClientChain {
		n += 16 + len(fp)
	}
	return int64(n)
}

func (d *Disk) AppendConn(rec *core.ConnRecord, seq uint64) *core.ConnRecord {
	d.hot = append(d.hot, *rec)
	if d.tracked {
		d.hotSeqs = append(d.hotSeqs, seq)
	}
	d.hotSlots = append(d.hotSlots, d.nextSlot)
	d.nextSlot++
	d.hotB += connBytes(rec)
	d.stats.HotConns.Store(int64(len(d.hot)))
	d.stats.HotBytes.Store(d.hotB)
	stored := &d.hot[len(d.hot)-1]
	d.maybeSpill()
	return stored
}

func (d *Disk) GrowConns(n int) {
	d.hot = grown(d.hot, n)
	if d.tracked {
		d.hotSeqs = grown(d.hotSeqs, n)
	}
	d.hotSlots = grown(d.hotSlots, n)
}

// maybeSpill moves the older half of the hot connections to the segment
// file until the estimate fits the budget. Spilling halves (not single
// records) keeps the amortized cost per append O(1) and the frames
// batch-sized. A single oversized record stays hot: there is nothing
// sane to spill.
func (d *Disk) maybeSpill() {
	for d.hotB > d.budget && len(d.hot) > 1 {
		d.spillConns(len(d.hot) / 2)
	}
}

// spillConns moves the oldest n hot connections to conns.seg.
func (d *Disk) spillConns(n int) {
	for start := 0; start < n; start += spillChunk {
		end := start + spillChunk
		if end > n {
			end = n
		}
		sp := connSpill{Conns: d.hot[start:end], Slots: d.hotSlots[start:end]}
		if d.tracked {
			sp.Seqs = d.hotSeqs[start:end]
		}
		off, err := d.appendFrame(&sp)
		if err != nil {
			panic(fmt.Sprintf("store: spill conns: %v", err))
		}
		for i := start; i < end; i++ {
			var seq uint64
			if d.tracked {
				seq = d.hotSeqs[i]
			}
			d.cold = append(d.cold, coldConn{
				slot: d.hotSlots[i], seq: seq, ts: d.hot[i].TS.UnixNano(), off: off,
			})
		}
	}
	// Copy the surviving tail into fresh arrays so the old backing
	// array — and the spilled records' string payloads — become
	// collectable. Re-slicing would pin the whole array.
	d.hot = append(make([]core.ConnRecord, 0, max(len(d.hot)-n, 64)), d.hot[n:]...)
	d.hotSlots = append(make([]uint64, 0, cap(d.hot)), d.hotSlots[n:]...)
	if d.tracked {
		d.hotSeqs = append(make([]uint64, 0, cap(d.hot)), d.hotSeqs[n:]...)
	}
	d.hotB = 0
	for i := range d.hot {
		d.hotB += connBytes(&d.hot[i])
	}
	d.stats.Spills.Add(uint64(n))
	d.stats.HotConns.Store(int64(len(d.hot)))
	d.stats.ColdConns.Store(int64(len(d.cold)))
	d.stats.HotBytes.Store(d.hotB)
	d.cacheOff = -1
}

// appendFrame gob-encodes sp and appends it to conns.seg as one frame,
// returning the frame's offset.
func (d *Disk) appendFrame(sp *connSpill) (int64, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(sp); err != nil {
		return 0, err
	}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, frameConnSpill, body.Bytes()); err != nil {
		return 0, err
	}
	at := d.connOff
	if _, err := d.connSeg.WriteAt(frame.Bytes(), at); err != nil {
		return 0, err
	}
	d.connOff = at + int64(frame.Len())
	return at, nil
}

// decodeFrame reads and decodes the spill frame at off.
func (d *Disk) decodeFrame(off int64, sp *connSpill) error {
	sr := io.NewSectionReader(d.connSeg, off, 1<<62)
	typ, body, err := ReadFrame(sr)
	if err != nil {
		return err
	}
	if typ != frameConnSpill {
		return fmt.Errorf("%w: frame type %d, want %d", ErrCorrupt, typ, frameConnSpill)
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(sp)
}

// connFrame returns the decoded spill frame at off, through the
// one-frame cache.
func (d *Disk) connFrame(off int64) ([]core.ConnRecord, []uint64, []uint64) {
	if d.cacheOff == off {
		return d.cacheConns, d.cacheSeqs, d.cacheSlots
	}
	var sp connSpill
	if err := d.decodeFrame(off, &sp); err != nil {
		panic(fmt.Sprintf("store: cold connection frame at %d: %v", off, err))
	}
	d.stats.Loads.Add(uint64(len(sp.Conns)))
	d.cacheOff, d.cacheConns, d.cacheSeqs, d.cacheSlots = off, sp.Conns, sp.Seqs, sp.Slots
	return sp.Conns, sp.Seqs, sp.Slots
}

func (d *Disk) ConnCount() int { return len(d.cold) + len(d.hot) }

func (d *Disk) NextSlot() uint64 { return d.nextSlot }

// appendCold appends copies of the cold records with slot >= mark to
// the given slices, in slot order.
func (d *Disk) appendCold(mark uint64, conns []core.ConnRecord, seqs []uint64) ([]core.ConnRecord, []uint64) {
	lo := sort.Search(len(d.cold), func(i int) bool { return d.cold[i].slot >= mark })
	for _, cc := range d.cold[lo:] {
		fConns, fSeqs, fSlots := d.connFrame(cc.off)
		idx := suffixAt(fSlots, cc.slot)
		if idx >= len(fSlots) || fSlots[idx] != cc.slot {
			panic(fmt.Sprintf("store: cold index slot %d missing from frame %d", cc.slot, cc.off))
		}
		conns = append(conns, fConns[idx])
		if d.tracked {
			seqs = append(seqs, fSeqs[idx])
		}
	}
	return conns, seqs
}

func (d *Disk) ConnsSince(mark uint64) ([]core.ConnRecord, []uint64) {
	var conns []core.ConnRecord
	var seqs []uint64
	conns, seqs = d.appendCold(mark, conns, seqs)
	lo := suffixAt(d.hotSlots, mark)
	conns = append(conns, d.hot[lo:]...)
	if d.tracked {
		seqs = append(seqs, d.hotSeqs[lo:]...)
	}
	return conns, seqs
}

// Conns iterates the retained window in append order: the cold index
// first (decoding each spill frame once through the cache), then the
// hot tail. Pointers into decoded frames stay valid after the
// iteration — decoded buffers are never reused, so a caller retaining
// them just pins the frame copy until it lets go.
func (d *Disk) Conns(fn func(rec *core.ConnRecord, seq uint64) bool) {
	for i := range d.cold {
		cc := &d.cold[i]
		fConns, fSeqs, fSlots := d.connFrame(cc.off)
		idx := suffixAt(fSlots, cc.slot)
		if idx >= len(fSlots) || fSlots[idx] != cc.slot {
			panic(fmt.Sprintf("store: cold index slot %d missing from frame %d", cc.slot, cc.off))
		}
		var seq uint64
		if d.tracked {
			seq = fSeqs[idx]
		}
		if !fn(&fConns[idx], seq) {
			return
		}
	}
	for i := range d.hot {
		var seq uint64
		if d.tracked {
			seq = d.hotSeqs[i]
		}
		if !fn(&d.hot[i], seq) {
			return
		}
	}
}

func (d *Disk) EvictBefore(cutoff time.Time) int {
	nano := cutoff.UnixNano()
	keptCold := d.cold[:0]
	for _, cc := range d.cold {
		if cc.ts >= nano {
			keptCold = append(keptCold, cc)
		}
	}
	dropped := len(d.cold) - len(keptCold)
	d.cold = keptCold

	kept := make([]core.ConnRecord, 0, len(d.hot))
	keptSlots := make([]uint64, 0, len(d.hotSlots))
	var keptSeqs []uint64
	if d.tracked {
		keptSeqs = make([]uint64, 0, len(d.hotSeqs))
	}
	for i := range d.hot {
		if !d.hot[i].TS.Before(cutoff) {
			kept = append(kept, d.hot[i])
			keptSlots = append(keptSlots, d.hotSlots[i])
			if d.tracked {
				keptSeqs = append(keptSeqs, d.hotSeqs[i])
			}
		}
	}
	if len(kept) != len(d.hot) {
		dropped += len(d.hot) - len(kept)
		d.hot, d.hotSlots, d.hotSeqs = kept, keptSlots, keptSeqs
		d.hotB = 0
		for i := range d.hot {
			d.hotB += connBytes(&d.hot[i])
		}
	}
	if dropped > 0 {
		d.stats.HotConns.Store(int64(len(d.hot)))
		d.stats.ColdConns.Store(int64(len(d.cold)))
		d.stats.HotBytes.Store(d.hotB)
	}
	return dropped
}

// Snapshot materializes everything: cold connections stream from disk
// into one fresh slice ahead of the hot tail (cold slots all precede
// hot slots, so concatenation preserves append order). O(retained) RAM
// for the duration of whatever the caller does with it — the tiered
// engine's documented materialization cost.
func (d *Disk) Snapshot() Snap {
	conns := make([]core.ConnRecord, 0, len(d.cold)+len(d.hot))
	var seqs []uint64
	if d.tracked {
		seqs = make([]uint64, 0, len(d.cold)+len(d.hot))
	}
	conns, seqs = d.appendCold(0, conns, seqs)
	conns = append(conns, d.hot...)
	if d.tracked {
		seqs = append(seqs, d.hotSeqs...)
	}
	return Snap{Conns: conns, Seqs: seqs}
}

func (d *Disk) Tiered() bool { return true }

func (d *Disk) Stats() *Stats { return &d.stats }

// Close releases the segment file. Cold records become unreadable; call
// only when the owning engine will not materialize again.
func (d *Disk) Close() error { return d.connSeg.Close() }

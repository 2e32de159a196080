package store

import (
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
// amortize the per-frame write, small enough that the one-frame decode
// cache stays kilobytes.
const spillChunk = 512

// coldTier is what kind "disk" adds to a Window: an estimated byte
// budget over the hot tail, and the older remainder spilled to an
// append-only segment file (conns.seg) under the store directory,
// addressed by an in-memory index. The file is scratch, not a
// durability layer — nothing is fsynced and it is truncated on open;
// crash durability is the checkpoint's job. Spilled space is never
// reclaimed in place (eviction only drops index entries); a long-running
// daemon bounds that growth with its checkpoint-restart cycle or a
// generous disk.
//
// Tier invariant the rest of the file depends on: every cold
// connection's sequence is below every hot connection's (spills always
// take the oldest hot prefix), so cold+hot concatenates in append order.
type coldTier struct {
	budget int64
	hotB   int64 // estimated bytes of the hot tail

	index []coldConn // sequence-ascending index over conns.seg
	seg   *os.File
	off   int64

	// One-frame decode cache: sequential readers (snapshots, rebuilds)
	// touch consecutive index entries that share a frame.
	cacheOff int64
	cache    []core.ConnRecord

	// buf is the one buffer frames are encoded into and read back
	// through; a decoded frame keeps none of its bytes.
	buf []byte
}

// coldConn locates one spilled, still-retained connection: enough to
// evict and search without touching disk, plus the frame that holds it
// and its position there.
type coldConn struct {
	seq uint64
	ts  int64 // UnixNano, for eviction
	off int64 // frame offset in conns.seg
	idx int32 // position in the frame
}

// frameConnSpill is a spill frame: a count, then that many connections
// under their sequences, in the record codec (record.go).
const frameConnSpill byte = 1

// openCold creates the cold tier under dir (recreated — segments are
// scratch, not state to recover). hotBytes <= 0 selects DefaultHotBytes.
func openCold(dir string, hotBytes int64) (*coldTier, error) {
	if hotBytes <= 0 {
		hotBytes = DefaultHotBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, "conns.seg"), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &coldTier{budget: hotBytes, seg: seg, cacheOff: -1}, nil
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

// maybeSpill moves the older half of the hot connections to the segment
// file until the estimate fits the budget. Spilling halves (not single
// records) keeps the amortized cost per append O(1) and the frames
// batch-sized. A single oversized record stays hot: there is nothing
// sane to spill.
func (w *Window) maybeSpill() {
	for w.cold.hotB > w.cold.budget && len(w.conns) > 1 {
		w.spill(len(w.conns) / 2)
	}
}

// spill moves the oldest n hot connections to conns.seg.
func (w *Window) spill(n int) {
	c := w.cold
	for start := 0; start < n; start += spillChunk {
		end := min(start+spillChunk, n)
		off, err := c.appendFrame(w.conns[start:end], w.seqs[start:end])
		if err != nil {
			panic(fmt.Sprintf("store: spill conns: %v", err))
		}
		for i := start; i < end; i++ {
			c.index = append(c.index, coldConn{
				seq: w.seqs[i], ts: w.conns[i].TS.UnixNano(), off: off, idx: int32(i - start),
			})
		}
	}
	// Copy the surviving tail into fresh arrays so the old backing
	// array — and the spilled records' string payloads — become
	// collectable. Re-slicing would pin the whole array.
	w.conns = append(make([]core.ConnRecord, 0, max(len(w.conns)-n, 64)), w.conns[n:]...)
	w.seqs = append(make([]uint64, 0, cap(w.conns)), w.seqs[n:]...)
	w.stats.Spills.Add(uint64(n))
	w.publish()
	c.cacheOff = -1
}

// appendFrame encodes the records and appends them to conns.seg as one
// frame, returning the frame's offset.
func (c *coldTier) appendFrame(conns []core.ConnRecord, seqs []uint64) (int64, error) {
	b := AppendConns(BeginFrame(c.buf[:0], frameConnSpill), conns, seqs)
	b, err := EndFrame(b, 0)
	c.buf = b[:0]
	if err != nil {
		return 0, err
	}
	at := c.off
	if _, err := c.seg.WriteAt(b, at); err != nil {
		return 0, err
	}
	c.off = at + int64(len(b))
	return at, nil
}

// decodeFrame reads and decodes the spill frame at off.
func (c *coldTier) decodeFrame(off int64) ([]core.ConnRecord, error) {
	typ, body, err := ReadFrame(io.NewSectionReader(c.seg, off, c.off-off), c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = body[:0]
	if typ != frameConnSpill {
		return nil, fmt.Errorf("%w: frame type %d, want %d", ErrCorrupt, typ, frameConnSpill)
	}
	d := NewDecoder(body)
	conns, _ := d.Conns()
	return conns, d.End()
}

// frame returns the decoded spill frame at off, through the one-frame
// cache.
func (w *Window) frame(off int64) []core.ConnRecord {
	c := w.cold
	if c.cacheOff == off {
		return c.cache
	}
	conns, err := c.decodeFrame(off)
	if err != nil {
		panic(fmt.Sprintf("store: cold connection frame at %d: %v", off, err))
	}
	w.stats.Loads.Add(uint64(len(conns)))
	c.cacheOff, c.cache = off, conns
	return conns
}

// search is the index position of the first spilled record with
// sequence >= seq.
func (c *coldTier) search(seq uint64) int {
	return sort.Search(len(c.index), func(i int) bool { return c.index[i].seq >= seq })
}

// evictBefore drops index entries with TS before cutoff and returns how
// many it dropped.
func (c *coldTier) evictBefore(cutoff time.Time) int {
	nano := cutoff.UnixNano()
	kept := c.index[:0]
	for _, cc := range c.index {
		if cc.ts >= nano {
			kept = append(kept, cc)
		}
	}
	dropped := len(c.index) - len(kept)
	c.index = kept
	return dropped
}

package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
)

func testConn(i int) core.ConnRecord {
	return core.ConnRecord{
		TS:          time.Unix(1700000000+int64(i), 0).UTC(), // as the log parser stamps them
		UID:         ids.UID(fmt.Sprintf("C%06d", i)),
		OrigIP:      "10.0.0.1",
		OrigPort:    uint16(10000 + i%50000),
		RespIP:      "10.0.0.2",
		RespPort:    443,
		Version:     "TLSv12",
		SNI:         fmt.Sprintf("host-%d.example.org", i),
		Established: true,
		ServerChain: []ids.Fingerprint{ids.Fingerprint(fmt.Sprintf("fp-%04d", i%97))},
		Weight:      1,
	}
}

// openBoth returns the one window type at two budgets — no cold tier,
// and a cold tier starved enough that every scenario is forced through
// the spill and cold-read machinery.
func openBoth(t *testing.T) map[string]*Window {
	t.Helper()
	mem, err := Open("memory", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Open("disk", t.TempDir(), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Window{"memory": mem, "disk": disk}
}

// seqConn is one retained record as a reader sees it.
type seqConn struct {
	Seq  uint64
	Conn core.ConnRecord
}

// since pairs w.Snapshot(seq) up, record by record.
func since(w *Window, seq uint64) []seqConn {
	conns, seqs := w.Snapshot(seq)
	if len(conns) != len(seqs) {
		panic(fmt.Sprintf("Snapshot(%d): %d records under %d sequences", seq, len(conns), len(seqs)))
	}
	var out []seqConn
	for i := range conns {
		out = append(out, seqConn{seqs[i], conns[i]})
	}
	return out
}

// TestWindowEquivalence drives both budgets through the same random
// interleaving of appends (increasing sequences with gaps, as
// certificates leave them), evictions and suffix queries, and requires
// identical observable state at every step — the contract the engine's
// byte-identical-reports gate rests on. Within each window the suffix
// query (Snapshot) must equal the whole window filtered by seq >= s.
func TestWindowEquivalence(t *testing.T) {
	wins := openBoth(t)
	mem, disk := wins["memory"], wins["disk"]
	rng := rand.New(rand.NewSource(20240504))
	var seq uint64
	appended := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 7: // a burst of appends
			for n := rng.Intn(40); n >= 0; n-- {
				seq += 1 + uint64(rng.Intn(3))
				c := testConn(appended)
				appended++
				for _, w := range wins {
					w.AppendConn(&c, seq)
				}
			}
		case op < 8: // an eviction cutting somewhere into what was appended
			cut := time.Unix(1700000000+int64(rng.Intn(appended+1)), 0)
			if m, d := mem.EvictBefore(cut), disk.EvictBefore(cut); m != d {
				t.Fatalf("step %d: evicted memory %d, disk %d", step, m, d)
			}
		default: // a suffix query at, between or past retained sequences
			s := uint64(rng.Int63n(int64(seq) + 3))
			all := since(mem, 0)
			var want []seqConn
			for _, sc := range all {
				if sc.Seq >= s {
					want = append(want, sc)
				}
			}
			for name, w := range wins {
				if got := since(w, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s Snapshot(%d) returned %d records, want %d (or contents differ)",
						step, name, s, len(got), len(want))
				}
			}
		}
		if m, d := mem.ConnCount(), disk.ConnCount(); m != d {
			t.Fatalf("step %d: counts differ: memory %d, disk %d", step, m, d)
		}
	}
	if disk.Stats().ColdConns.Load() == 0 || mem.ConnCount() == 0 {
		t.Fatal("scenario ended without a populated cold tier")
	}
	mConns, mSeqs := mem.Snapshot(0)
	dConns, dSeqs := disk.Snapshot(0)
	if !reflect.DeepEqual(mConns, dConns) || !reflect.DeepEqual(mSeqs, dSeqs) {
		t.Fatal("snapshots differ between memory and disk")
	}
	for i := 1; i < len(dSeqs); i++ {
		if dSeqs[i] <= dSeqs[i-1] {
			t.Fatalf("snapshot out of append order at %d", i)
		}
	}
	if mem.Tiered() || !disk.Tiered() {
		t.Fatalf("Tiered: memory %v, disk %v", mem.Tiered(), disk.Tiered())
	}
}

// TestAppendRefusesNonIncreasingSequence pins the contract the suffix
// search depends on: a sequence at or below one already appended —
// even one since evicted — is a caller bug, not a record.
func TestAppendRefusesNonIncreasingSequence(t *testing.T) {
	for name, w := range openBoth(t) {
		c := testConn(0)
		w.AppendConn(&c, 7)
		w.EvictBefore(time.Unix(1700000001, 0))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: sequence 7 appended twice", name)
				}
			}()
			w.AppendConn(&c, 7)
		}()
	}
}

// TestDiskSpillsAndFaults pins the tiering behavior: a budget far below
// the data size must spill most connections cold, keep every one
// readable, and count the traffic in Stats.
func TestDiskSpillsAndFaults(t *testing.T) {
	d, err := Open("disk", t.TempDir(), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		c := testConn(i)
		d.AppendConn(&c, uint64(i))
	}
	st := d.Stats()
	if st.ColdConns.Load() == 0 {
		t.Fatal("an 8KiB budget spilled nothing")
	}
	if st.Spills.Load() == 0 {
		t.Fatal("spill counter did not move")
	}
	if got := st.HotBytes.Load(); got > 8<<10 {
		t.Fatalf("hot bytes %d above the 8KiB budget", got)
	}
	// A snapshot holds every conn in append order, cold ones included.
	all := since(d, 0)
	for i, sc := range all {
		if sc.Conn.UID != ids.UID(fmt.Sprintf("C%06d", i)) || sc.Seq != uint64(i) {
			t.Fatalf("conn %d out of order: %s under sequence %d", i, sc.Conn.UID, sc.Seq)
		}
	}
	if len(all) != n {
		t.Fatalf("snapshot holds %d conns, want %d", len(all), n)
	}
	if st.Loads.Load() == 0 {
		t.Fatal("cold loads were not counted")
	}
}

// TestDiskEvictAcrossTiers evicts a cutoff landing inside the cold tier
// and checks counts and survivors on both tiers.
func TestDiskEvictAcrossTiers(t *testing.T) {
	d, err := Open("disk", t.TempDir(), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		c := testConn(i)
		d.AppendConn(&c, uint64(i))
	}
	if d.Stats().ColdConns.Load() == 0 {
		t.Fatal("scenario needs a populated cold tier")
	}
	cut := time.Unix(1700000000+n/3, 0)
	dropped := d.EvictBefore(cut)
	if dropped != n/3 {
		t.Fatalf("evicted %d, want %d", dropped, n/3)
	}
	if got := d.ConnCount(); got != n-n/3 {
		t.Fatalf("ConnCount = %d, want %d", got, n-n/3)
	}
	for _, sc := range since(d, 0) {
		if sc.Conn.TS.Before(cut) {
			t.Fatalf("evicted conn %s still visible", sc.Conn.UID)
		}
	}
}

// TestFrameCodecTorn pins the failure mode the torn-checkpoint corpus
// relies on: truncation at any byte inside a frame, or payload damage,
// is ErrCorrupt (or a clean EOF exactly at a frame boundary) — never a
// panic, never silently wrong bytes.
func TestFrameCodecTorn(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte("beta-beta"), {}, []byte("gamma")}
	var full []byte
	var bounds []int
	for i, p := range payloads {
		var err error
		if full, err = EndFrame(append(BeginFrame(full, byte(i+1)), p...), len(full)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, len(full))
	}

	// One buffer across the frames, as the segment readers lend it.
	readAll := func(b []byte) (n int, err error) {
		r := bytes.NewReader(b)
		var buf []byte
		for {
			typ, body, err := ReadFrame(r, buf)
			if err != nil {
				if err == io.EOF {
					return n, nil
				}
				return n, err
			}
			if typ != byte(n+1) || !bytes.Equal(body, payloads[n]) {
				return n, fmt.Errorf("frame %d read back as type %d %q", n, typ, body)
			}
			buf = body[:0]
			n++
		}
	}

	for cut := 0; cut <= len(full); cut++ {
		n, err := readAll(full[:cut])
		atBoundary := cut == 0
		for _, b := range bounds {
			if cut == b {
				atBoundary = true
			}
		}
		if atBoundary {
			if err != nil {
				t.Fatalf("cut=%d (frame boundary): unexpected error %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("cut=%d (mid-frame): truncation not detected (read %d frames)", cut, n)
		}
	}
	// Flip every byte in turn: the checksum must catch each.
	for i := range full {
		mangled := append([]byte(nil), full...)
		mangled[i] ^= 0x5a
		if _, err := readAll(mangled); err == nil {
			t.Fatalf("byte flip at %d not detected", i)
		}
	}
}

// TestConnsSinceAfterEviction pins the mark semantics: eviction may
// consume part of the suffix a mark addresses; Since returns only the
// survivors, in order.
func TestConnsSinceAfterEviction(t *testing.T) {
	for name, w := range openBoth(t) {
		for i := 0; i < 100; i++ {
			r := testConn(i)
			w.AppendConn(&r, uint64(2*i))
		}
		mark := uint64(2 * 100) // one past everything appended so far
		for i := 100; i < 200; i++ {
			r := testConn(i)
			w.AppendConn(&r, uint64(2*i+1))
		}
		// Cutoff lands inside the post-mark range.
		w.EvictBefore(time.Unix(1700000000+150, 0))
		got := since(w, mark)
		if len(got) != 50 {
			t.Fatalf("%s: Since after eviction returned %d conns, want 50", name, len(got))
		}
		if got[0].Conn.UID != ids.UID(fmt.Sprintf("C%06d", 150)) {
			t.Fatalf("%s: first survivor is %s, want C%06d", name, got[0].Conn.UID, 150)
		}
	}
}

package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
)

func testConn(i int) core.ConnRecord {
	return core.ConnRecord{
		TS:          time.Unix(1700000000+int64(i), 0),
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

// openBoth returns a memory store and a tightly budgeted disk store, so
// every test runs the same scenario against both and the disk store is
// forced through its spill/fault machinery.
func openBoth(t *testing.T, trackSeqs bool) map[string]Store {
	t.Helper()
	mem := NewMem(trackSeqs)
	disk, err := OpenDisk(t.TempDir(), 16<<10, trackSeqs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close(); disk.Close() })
	return map[string]Store{"memory": mem, "disk": disk}
}

// TestStoreEquivalence drives both implementations through the same
// append/evict/read scenario and requires identical observable state —
// the contract the engine's byte-identical-reports gate rests on.
func TestStoreEquivalence(t *testing.T) {
	const nConns = 3000
	stores := openBoth(t, true)
	type view struct {
		snap    Snap
		since   []core.ConnRecord
		seqs    []uint64
		count   int
		evicted int
	}
	views := map[string]*view{}
	for name, st := range stores {
		var mark uint64
		for i := 0; i < nConns; i++ {
			c := testConn(i)
			st.AppendConn(&c, uint64(i+1))
			if i == nConns/2 {
				mark = st.NextSlot()
			}
		}
		evicted := st.EvictBefore(time.Unix(1700000000+nConns/4, 0))
		since, seqs := st.ConnsSince(mark)
		v := &view{
			snap:    st.Snapshot(),
			since:   since,
			seqs:    seqs,
			count:   st.ConnCount(),
			evicted: evicted,
		}
		views[name] = v
	}
	m, d := views["memory"], views["disk"]
	if m.count != d.count {
		t.Fatalf("counts differ: memory %d, disk %d", m.count, d.count)
	}
	if m.evicted != d.evicted {
		t.Fatalf("evicted differ: memory %d, disk %d", m.evicted, d.evicted)
	}
	if !reflect.DeepEqual(m.since, d.since) || !reflect.DeepEqual(m.seqs, d.seqs) {
		t.Fatal("ConnsSince results differ between memory and disk")
	}
	if !reflect.DeepEqual(m.snap.Conns, d.snap.Conns) || !reflect.DeepEqual(m.snap.Seqs, d.snap.Seqs) {
		t.Fatal("snapshot connection streams differ between memory and disk")
	}
}

// TestDiskSpillsAndFaults pins the tiering behavior: a budget far below
// the data size must spill most connections cold, keep every one
// readable, and count the traffic in Stats.
func TestDiskSpillsAndFaults(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 8<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		c := testConn(i)
		d.AppendConn(&c, 0)
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
	// The iterator sees every conn in append order, cold ones included.
	i := 0
	d.Conns(func(rec *core.ConnRecord, _ uint64) bool {
		if rec.UID != ids.UID(fmt.Sprintf("C%06d", i)) {
			t.Fatalf("conn %d out of order: %s", i, rec.UID)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("iterator visited %d conns, want %d", i, n)
	}
	if st.Loads.Load() == 0 {
		t.Fatal("cold loads were not counted")
	}
}

// TestDiskEvictAcrossTiers evicts a cutoff landing inside the cold tier
// and checks counts and survivors on both tiers.
func TestDiskEvictAcrossTiers(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 4<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 1500
	for i := 0; i < n; i++ {
		c := testConn(i)
		d.AppendConn(&c, 0)
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
	d.Conns(func(rec *core.ConnRecord, _ uint64) bool {
		if rec.TS.Before(cut) {
			t.Fatalf("evicted conn %s still visible", rec.UID)
		}
		return true
	})
}

// TestFrameCodecTorn pins the failure mode the torn-checkpoint corpus
// relies on: truncation at any byte inside a frame, or payload damage,
// is ErrCorrupt (or a clean EOF exactly at a frame boundary) — never a
// panic, never silently wrong bytes.
func TestFrameCodecTorn(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), []byte("beta-beta"), {}, []byte("gamma")}
	var bounds []int
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, buf.Len())
	}
	full := buf.Bytes()

	readAll := func(b []byte) (n int, err error) {
		r := bytes.NewReader(b)
		for {
			_, _, err := ReadFrame(r)
			if err != nil {
				if err.Error() == "EOF" {
					return n, nil
				}
				return n, err
			}
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
// consume part of the suffix a mark addresses; ConnsSince returns only
// the survivors, in order.
func TestConnsSinceAfterEviction(t *testing.T) {
	for name, st := range openBoth(t, false) {
		for i := 0; i < 100; i++ {
			r := testConn(i)
			st.AppendConn(&r, 0)
		}
		mark := st.NextSlot()
		for i := 100; i < 200; i++ {
			r := testConn(i)
			st.AppendConn(&r, 0)
		}
		// Cutoff lands inside the post-mark range.
		st.EvictBefore(time.Unix(1700000000+150, 0))
		got, _ := st.ConnsSince(mark)
		if len(got) != 50 {
			t.Fatalf("%s: ConnsSince after eviction returned %d conns, want 50", name, len(got))
		}
		if got[0].UID != ids.UID(fmt.Sprintf("C%06d", 150)) {
			t.Fatalf("%s: first survivor is %s, want C%06d", name, got[0].UID, 150)
		}
	}
}

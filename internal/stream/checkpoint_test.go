package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/workload"
)

// ckptSlices cuts a build's connections into k contiguous intervals, so
// tests can interleave ingest with checkpoints.
func ckptSlices(b []core.ConnRecord, k int) [][]core.ConnRecord {
	out := make([][]core.ConnRecord, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := len(b)*i/k, len(b)*(i+1)/k
		out = append(out, b[lo:hi])
	}
	return out
}

// TestIncrementalCheckpointResume is the incremental analogue of
// TestCheckpointRestoreResume: several delta commits into one directory,
// a kill after each interval, and a restore that must reproduce the
// uninterrupted run byte for byte.
func TestIncrementalCheckpointResume(t *testing.T) {
	b := genBuild(20240504, 1000)
	in := inputFromBuild(b)
	in.Raw = nil

	full := newEngine(t, in, nil)
	feed(t, full, b)
	full.Drain()
	want := full.Analysis()

	dir := filepath.Join(t.TempDir(), "ckpt")
	parts := ckptSlices(b.Raw.Conns, 4)

	e := newEngine(t, in, nil)
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	fed := 0
	for i, part := range parts[:3] {
		for j := range part {
			e.IngestConn(&part[j])
		}
		fed += len(part)
		e.Drain()
		if err := e.WriteCheckpoint(dir, map[string]int64{"conn_index": int64(fed)}); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	e.Close() // the "kill"

	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 3 {
		t.Fatalf("manifest has %d segments after 3 commits, want 3", len(man.Segments))
	}

	restored, cursor, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if cursor["conn_index"] != int64(fed) {
		t.Fatalf("cursor = %v, want conn_index=%d", cursor, fed)
	}
	for j := range parts[3] {
		restored.IngestConn(&parts[3][j])
	}
	restored.Drain()
	got := restored.Analysis()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored analysis differs from uninterrupted run")
	}
	if report.RenderAll(want) != report.RenderAll(got) {
		t.Fatal("rendered reports are not byte-identical after incremental restore")
	}

	// The restored engine keeps appending deltas to the same directory.
	if err := restored.WriteCheckpoint(dir, map[string]int64{"conn_index": int64(len(b.Raw.Conns))}); err != nil {
		t.Fatal(err)
	}
	again, _, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	again.Drain()
	if got := again.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("second-generation restore differs from uninterrupted run")
	}
}

// TestIncrementalCheckpointWithEviction commits deltas across retention
// evictions: the per-segment cutoff replay must reproduce the retained
// window exactly (counter equality is required; the analysis only sees
// the window, so a wrong replay shows up as a different report).
func TestIncrementalCheckpointWithEviction(t *testing.T) {
	b := genBuild(7, 800)
	in := inputFromBuild(b)
	in.Raw = nil
	mut := func(c *Config) { c.Retention = 90 * 24 * 3600e9 } // ~90 days of the synthetic clock

	e := newEngine(t, in, mut)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i, part := range ckptSlices(b.Raw.Conns, 5) {
		for j := range part {
			e.IngestConn(&part[j])
		}
		e.Drain()
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	e.Drain()
	want := e.Analysis()
	wantStats := e.Stats()
	if wantStats.Evicted == 0 {
		t.Fatal("scenario needs evictions between commits")
	}

	restored, _, err := Restore(Config{Input: in, Retention: 90 * 24 * 3600e9}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	gotStats := restored.Stats()
	if gotStats.Retained != wantStats.Retained || gotStats.Evicted != wantStats.Evicted {
		t.Fatalf("retained/evicted after restore = %d/%d, want %d/%d",
			gotStats.Retained, gotStats.Evicted, wantStats.Retained, wantStats.Evicted)
	}
	if got := restored.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("restored analysis differs across eviction replay")
	}
	e.Close()
}

// TestCheckpointCompaction folds a long segment chain and requires the
// compacted directory to restore to the same state as the chain.
func TestCheckpointCompaction(t *testing.T) {
	b := genBuild(99, 600)
	in := inputFromBuild(b)
	in.Raw = nil

	e := newEngine(t, in, func(c *Config) { c.Retention = 120 * 24 * 3600e9 })
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	parts := ckptSlices(b.Raw.Conns, ckptCompactEvery-1)
	for _, part := range parts {
		for j := range part {
			e.IngestConn(&part[j])
		}
		e.Drain()
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := e.Analysis()

	man, _ := readCkptManifest(dir)
	if len(man.Segments) != ckptCompactEvery-1 {
		t.Fatalf("precondition: %d segments, want %d", len(man.Segments), ckptCompactEvery-1)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("after Compact: %d segments, want 1", len(man.Segments))
	}
	// Old segment files are gone; only the folded one remains.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ckpt"))
	if len(segs) != 1 {
		t.Fatalf("after Compact: %d segment files on disk, want 1", len(segs))
	}

	restored, _, err := Restore(Config{Input: in, Retention: 120 * 24 * 3600e9}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if got := restored.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("restore from compacted base differs from pre-compaction state")
	}

	// Deltas keep working after compaction, and the background trigger
	// fires once the chain regrows.
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	man, _ = readCkptManifest(dir)
	if len(man.Segments) != 2 {
		t.Fatalf("delta after Compact: %d segments, want 2", len(man.Segments))
	}
	e.Close()
}

// TestCheckpointAutoCompaction checks the background trigger: the
// ckptCompactEvery-th commit folds the chain without an explicit call.
func TestCheckpointAutoCompaction(t *testing.T) {
	b := genBuild(7, 400)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for _, part := range ckptSlices(b.Raw.Conns, ckptCompactEvery) {
		for j := range part {
			e.IngestConn(&part[j])
		}
		e.Drain()
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.compactWG.Wait()
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("background compaction left %d segments, want 1", len(man.Segments))
	}
	e.Close()
}

// TestCheckpointCrashMidDelta injects a failure at the manifest rename —
// the commit point — and requires the directory to restore to the
// previous commit, with the orphaned segment swept by the next write.
func TestCheckpointCrashMidDelta(t *testing.T) {
	b := genBuild(20240504, 600)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	parts := ckptSlices(b.Raw.Conns, 3)
	for j := range parts[0] {
		e.IngestConn(&parts[0][j])
	}
	e.Drain()
	if err := e.WriteCheckpoint(dir, map[string]int64{"i": 1}); err != nil {
		t.Fatal(err)
	}
	committed := e.Analysis()

	// Second commit dies at the rename: the new segment file exists and
	// is fsynced, but no manifest references it.
	for j := range parts[1] {
		e.IngestConn(&parts[1][j])
	}
	e.Drain()
	atomicfile.Failpoint = func(stage atomicfile.Stage, path string) error {
		if stage == atomicfile.StageRename && filepath.Base(path) == ckptManifestName {
			return fmt.Errorf("injected crash at manifest rename")
		}
		return nil
	}
	err := e.WriteCheckpoint(dir, map[string]int64{"i": 2})
	atomicfile.Failpoint = nil
	if err == nil {
		t.Fatal("injected rename failure did not surface")
	}
	e.Close()

	restored, cursor, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cursor["i"] != 1 {
		t.Fatalf("cursor = %v, want the first commit's", cursor)
	}
	if got := restored.Analysis(); !reflect.DeepEqual(committed, got) {
		t.Fatal("restore after torn commit differs from the last committed state")
	}

	// The restored engine has no delta history for the orphan; its next
	// commit sweeps it and starts a fresh generation that restores clean.
	for j := range parts[2] {
		restored.IngestConn(&parts[2][j])
	}
	restored.Drain()
	if err := restored.WriteCheckpoint(dir, map[string]int64{"i": 3}); err != nil {
		t.Fatal(err)
	}
	man, _ := readCkptManifest(dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ckpt"))
	if len(segs) != len(man.Segments) {
		t.Fatalf("%d segment files on disk, manifest references %d (orphan not swept)", len(segs), len(man.Segments))
	}
	want := restored.Analysis()
	restored.Close()
	again, _, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	if got := again.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("post-recovery commit does not restore to the committed state")
	}
}

// TestCheckpointCrashMidCompaction injects a failure at the compaction
// manifest rename: the old chain must stay authoritative, and a retried
// compaction must succeed.
func TestCheckpointCrashMidCompaction(t *testing.T) {
	b := genBuild(99, 500)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for _, part := range ckptSlices(b.Raw.Conns, 4) {
		for j := range part {
			e.IngestConn(&part[j])
		}
		e.Drain()
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := e.Analysis()

	atomicfile.Failpoint = func(stage atomicfile.Stage, path string) error {
		if stage == atomicfile.StageRename && filepath.Base(path) == ckptManifestName {
			return fmt.Errorf("injected crash at compaction commit")
		}
		return nil
	}
	err := e.Compact()
	atomicfile.Failpoint = nil
	if err == nil {
		t.Fatal("injected compaction failure did not surface")
	}
	man, _ := readCkptManifest(dir)
	if len(man.Segments) != 4 {
		t.Fatalf("torn compaction disturbed the manifest: %d segments, want 4", len(man.Segments))
	}
	restored, _, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("restore after torn compaction differs")
	}
	restored.Close()

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	man, _ = readCkptManifest(dir)
	if len(man.Segments) != 1 {
		t.Fatalf("retried compaction left %d segments, want 1", len(man.Segments))
	}
	again, _, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	if got := again.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("restore after retried compaction differs")
	}
	e.Close()
}

// TestTornCheckpointCorpus truncates a committed segment at every frame
// boundary (and a probe inside each frame) and requires Restore to
// return a clean error — never a panic, never a silently partial engine.
func TestTornCheckpointCorpus(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	base := t.TempDir()
	dir := filepath.Join(base, "ckpt")
	feed(t, e, b)
	e.Drain()
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()

	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	segName := man.Segments[0].Name
	whole, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Walk the frame boundaries of the real segment.
	var cuts []int
	off := 0
	for off < len(whole) {
		if off+9 > len(whole) {
			t.Fatalf("segment has trailing garbage at %d", off)
		}
		n := int(uint32(whole[off+1]) | uint32(whole[off+2])<<8 | uint32(whole[off+3])<<16 | uint32(whole[off+4])<<24)
		off += 9 + n
		cuts = append(cuts, off)
	}
	if cuts[len(cuts)-1] != len(whole) {
		t.Fatalf("frame walk ended at %d, file is %d bytes", cuts[len(cuts)-1], len(whole))
	}

	try := func(name string, seg []byte) {
		t.Helper()
		tdir := filepath.Join(base, name)
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, segName), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, ckptManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		eng, _, err := Restore(Config{Input: in}, tdir)
		if err == nil {
			eng.Close()
			t.Fatalf("%s: restore of a damaged checkpoint succeeded", name)
		}
	}

	prev := 0
	for i, cut := range cuts {
		// Exactly at the boundary: framing is intact but the manifest
		// size no longer matches — truncation must still be detected
		// (a shorter-than-committed segment is torn even if it parses).
		if cut != len(whole) {
			try(fmt.Sprintf("bound-%d", i), whole[:cut])
		}
		// Inside the frame: framing itself is damaged.
		mid := prev + (cut-prev)/2
		if mid > prev {
			try(fmt.Sprintf("mid-%d", i), whole[:mid])
		}
		prev = cut
	}
	// Bit rot without truncation: CRC must catch it.
	for _, at := range []int{1, len(whole) / 2, len(whole) - 1} {
		mangled := append([]byte(nil), whole...)
		mangled[at] ^= 0x80
		try(fmt.Sprintf("flip-%d", at), mangled)
	}
	// A manifest referencing a missing segment is a clean error too.
	tdir := filepath.Join(base, "missing-seg")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, ckptManifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if eng, _, err := Restore(Config{Input: in}, tdir); err == nil {
		eng.Close()
		t.Fatal("restore with a missing segment succeeded")
	}

	// Damage the framing cannot see: every frame and checksum intact, but
	// the sequence column runs backwards. Replaying it would hand the
	// window records out of order, so it is refused as corruption by
	// plain and exporting engines alike.
	seg := nonIncreasingSeqSegment(t, in, b)
	tdir = filepath.Join(base, "seqs-backwards")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, segName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	backwards := fmt.Sprintf(`{"Version":1,"Gen":1,"NextSeg":2,"Segments":[{"Name":%q,"Bytes":%d}]}`, segName, len(seg))
	if err := os.WriteFile(filepath.Join(tdir, ckptManifestName), []byte(backwards), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Input: in}, {Input: in, TrackExport: true}} {
		eng, _, err := Restore(cfg, tdir)
		if err == nil {
			eng.Close()
			t.Fatalf("TrackExport=%v: restore of a backwards sequence column succeeded", cfg.TrackExport)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("TrackExport=%v: backwards sequence column: err = %v, want store.ErrCorrupt", cfg.TrackExport, err)
		}
	}
}

// nonIncreasingSeqSegment returns a base segment that is intact in every
// frame and checksum but whose sequence column runs backwards: an
// exporting engine's checkpoint with the first two stamps of its first
// connection frame swapped.
func nonIncreasingSeqSegment(t testing.TB, in *core.Input, b *workload.Build) []byte {
	t.Helper()
	e, err := New(Config{Input: in, TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range b.Raw.Conns {
		e.IngestConn(&b.Raw.Conns[i])
	}
	e.Drain()
	dir := filepath.Join(t.TempDir(), "seqs")
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, man.Segments[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	swapped := false
	for {
		typ, body, err := store.ReadFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if typ == segFrameConns && !swapped {
			var batch segConns
			if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
				t.Fatal(err)
			}
			if len(batch.Seqs) != len(batch.Conns) || len(batch.Seqs) < 2 {
				t.Fatalf("exporting engine wrote %d sequences for %d connections", len(batch.Seqs), len(batch.Conns))
			}
			batch.Seqs[0], batch.Seqs[1] = batch.Seqs[1], batch.Seqs[0]
			var enc bytes.Buffer
			if err := gob.NewEncoder(&enc).Encode(&batch); err != nil {
				t.Fatal(err)
			}
			body, swapped = enc.Bytes(), true
		}
		if err := store.WriteFrame(&out, typ, body); err != nil {
			t.Fatal(err)
		}
	}
	if !swapped {
		t.Fatal("segment has no connection frame")
	}
	return out.Bytes()
}

// TestLegacyStaleTempSwept is the regression for the `.tmp` leak: a
// crash between Create and Rename on the legacy single-file path used
// to leave <path>.tmp behind forever. Restore must collect it.
func TestLegacyStaleTempSwept(t *testing.T) {
	b := genBuild(7, 200)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()
	dir := t.TempDir()
	path := filepath.Join(dir, "mtlsd.ckpt")
	// Seed a legacy-format file so WriteCheckpoint stays on that path.
	if f, err := os.Create(path); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	if err := e.WriteCheckpoint(path, map[string]int64{"i": 1}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// The residue a mid-commit crash leaves.
	stale := atomicfile.TempName(path)
	if err := os.WriteFile(stale, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(Config{Input: in}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived restore", stale)
	}
}

// TestIncrementalCheckpointIsODelta is the cost gate for the tentpole's
// headline claim: with a large retained state already committed, a
// checkpoint covering a small delta must allocate proportionally to the
// delta, not the state. (The old path's full copy under the engine lock
// allocated the entire window every interval — satellite 3.) Allocated
// bytes are compared, not allocation counts: one `append(nil, conns...)`
// is a single allocation that a count-based gate would wave through.
func TestIncrementalCheckpointIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	nBig := len(b.Raw.Conns) - 64
	for i := 0; i < nBig; i++ {
		e.IngestConn(&b.Raw.Conns[i])
	}
	e.Drain()
	// Base commit carries the big state; measure what O(state)
	// serialization costs so the delta gate is self-calibrating.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	baseAlloc := after.TotalAlloc - before.TotalAlloc
	baseBytes := readCkptSize(t, dir, 1)

	// Tiny delta.
	for i := nBig; i < len(b.Raw.Conns); i++ {
		e.IngestConn(&b.Raw.Conns[i])
	}
	e.Drain()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	e.Close()

	deltaAlloc := after.TotalAlloc - before.TotalAlloc
	deltaBytes := readCkptSize(t, dir, 2)
	if deltaBytes*8 > baseBytes {
		t.Fatalf("delta segment is %d bytes vs %d base — not a delta", deltaBytes, baseBytes)
	}
	// The delta pays a constant floor (the segment writer's 1MiB buffer,
	// the full detector snapshot) plus O(delta records); re-serializing
	// the ~2000-record state — what the removed full copy under the
	// engine lock used to do every interval — costs several times that.
	if deltaAlloc*3 > baseAlloc {
		t.Fatalf("delta checkpoint allocated %d bytes vs %d for the base — O(state) work on the delta path", deltaAlloc, baseAlloc)
	}
}

// readCkptSize returns the byte size of the n-th committed segment.
func readCkptSize(t *testing.T, dir string, n int) uint64 {
	t.Helper()
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) < n {
		t.Fatalf("manifest has %d segments, want at least %d", len(man.Segments), n)
	}
	return uint64(man.Segments[n-1].Bytes)
}

// TestDiskStoreMatchesMemory runs the load-bearing equivalence contract
// with the disk store under a hot budget far below the dataset: reports
// must be byte-identical to the memory store's, with records actually
// spilling through the cold tier.
func TestDiskStoreMatchesMemory(t *testing.T) {
	b := genBuild(20240504, 1200)
	in := inputFromBuild(b)
	in.Raw = nil

	mem := newEngine(t, in, nil)
	feed(t, mem, b)
	mem.Drain()
	want := mem.Analysis()

	disk := newEngine(t, in, func(c *Config) {
		c.Store = "disk"
		c.StoreDir = t.TempDir()
		c.HotBytes = 256 << 10
	})
	feed(t, disk, b)
	disk.Drain()
	st := disk.st.Stats()
	if st.ColdConns.Load() == 0 {
		t.Fatal("hot budget did not force any spill — test is not exercising the cold tier")
	}
	got := disk.Analysis()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("disk-store analysis differs from memory store")
	}
	if report.RenderAll(want) != report.RenderAll(got) {
		t.Fatal("rendered reports are not byte-identical across stores")
	}

	// Checkpoint/restore with the disk store round-trips too.
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := disk.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(Config{Input: in, Store: "disk", StoreDir: t.TempDir(), HotBytes: 256 << 10}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if got := restored.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("disk-store restore differs from memory store")
	}
}

// FuzzRestore hammers the directory-restore path with arbitrary segment
// bytes: any input must produce either a working engine or a clean
// error — never a panic. The seed corpus is a valid committed segment,
// so mutations explore near-valid framing.
func FuzzRestore(f *testing.F) {
	b := genBuild(7, 30)
	in := inputFromBuild(b)
	in.Raw = nil
	e, err := New(Config{Input: in})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range b.Raw.Conns {
		e.IngestConn(&b.Raw.Conns[i])
	}
	e.Drain()
	seedDir := filepath.Join(f.TempDir(), "seed")
	if err := e.WriteCheckpoint(seedDir, nil); err != nil {
		f.Fatal(err)
	}
	e.Close()
	man, err := readCkptManifest(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, man.Segments[0].Name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add(nonIncreasingSeqSegment(f, in, b))

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1.ckpt"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		manifest := fmt.Sprintf(`{"Version":1,"Gen":1,"NextSeg":2,"Segments":[{"Name":"seg-1.ckpt","Bytes":%d}]}`, len(seg))
		if err := os.WriteFile(filepath.Join(dir, ckptManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		eng, _, err := Restore(Config{Input: in}, dir)
		if err == nil {
			eng.Close()
		}
	})
}

package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/race"
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
	e.Close() // waits for the fold the last commit started
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Chains[0]) != 1 {
		t.Fatalf("background compaction left %d segments, want 1", len(man.Chains[0]))
	}
}

// TestFirstContactKeepsCommittedChain: an engine that did not restore
// from a directory writes into it anyway — some other history's commit is
// there. Until the replacement's manifest is in place that commit must
// stay restorable: the writer used to sweep every segment first and
// create its base over the old manifest's seg-1.ckpt, so a crash at the
// rename left a manifest naming files that were gone.
func TestFirstContactKeepsCommittedChain(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	dir := filepath.Join(t.TempDir(), "ckpt")
	parts := ckptSlices(b.Raw.Conns, 2)

	first := newEngine(t, in, nil)
	for _, c := range b.Raw.Certs {
		first.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for _, part := range parts {
		first.IngestConnBatch(part)
		first.Drain()
		if err := first.WriteCheckpoint(dir, map[string]int64{"who": 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := first.Analysis()
	first.Close()

	second := newEngine(t, in, nil)
	second.IngestConnBatch(parts[0])
	second.Drain()
	atomicfile.Failpoint = func(stage atomicfile.Stage, path string) error {
		if stage == atomicfile.StageRename && filepath.Base(path) == ckptManifestName {
			return fmt.Errorf("injected crash at manifest rename")
		}
		return nil
	}
	err := second.WriteCheckpoint(dir, map[string]int64{"who": 2})
	atomicfile.Failpoint = nil
	if err == nil {
		t.Fatal("injected rename failure did not surface")
	}
	restored, cursor, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatalf("the committed chain did not survive a failed first write over it: %v", err)
	}
	t.Cleanup(restored.Close)
	if cursor["who"] != 1 || !reflect.DeepEqual(want, restored.Analysis()) {
		t.Fatalf("restored cursor %v, want the first engine's commit", cursor)
	}

	// The retry replaces it, and only then collects its files.
	if err := second.WriteCheckpoint(dir, map[string]int64{"who": 2}); err != nil {
		t.Fatal(err)
	}
	if man := assertOnlyCommitted(t, dir); len(man.Chains[0]) != 1 {
		t.Fatalf("replacement chain has %d segments, want one base", len(man.Chains[0]))
	}
	replaced, cursor, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replaced.Close)
	if cursor["who"] != 2 || !reflect.DeepEqual(second.Analysis(), replaced.Analysis()) {
		t.Fatalf("restored cursor %v, want the second engine's commit", cursor)
	}
}

// TestCheckpointCrashMatrix fails every atomicfile stage of a delta
// commit, of a compaction and of the file → directory swap, one at a
// time. At shards=1 the writer is an engine on a chain it started itself.
// At shards=2 — the label is historical — it is an engine restored from
// the previous release's window-export directory, and every stage is one
// of continuing that chain in place: the delta row appends new rows to it,
// the compaction row folds it — the parent's commit refolded, the same
// commit on both sides — and the swap row writes the restored state over
// a file. After each failure the path must restore to exactly the previous
// commit or exactly the new one — cursor and reports from the same commit,
// the parent's files byte for byte or a chain that names the new segment,
// never a mix — and the writer's retry must commit and leave nothing
// unnamed behind. The swap replaces a file of arbitrary bytes, which no
// release reads: before the swap the path must still hold that file, byte
// for byte, and restore refuses it by name. The stages are found by
// recording a clean run, so a stage added to the protocol is covered
// without touching this test.
func TestCheckpointCrashMatrix(t *testing.T) {
	fx := loadFixture()
	type hit struct {
		stage atomicfile.Stage
		path  string
	}
	// failAt fails the k-th stage consulted (none when k < 0) and returns
	// the record of what was consulted.
	failAt := func(k int) *[]hit {
		var hits []hit
		atomicfile.Failpoint = func(stage atomicfile.Stage, path string) error {
			hits = append(hits, hit{stage, path})
			if len(hits)-1 == k {
				return fmt.Errorf("injected failure at %s %s", stage, filepath.Base(path))
			}
			return nil
		}
		return &hits
	}
	defer func() { atomicfile.Failpoint = nil }()

	// commit is what a path held before or after the operation: a commit's
	// cursor and reports — and, for the parent's directory, its files by
	// name — or, before a swap, a file of other bytes.
	type commit struct {
		cursor  int64
		reports map[string]any
		files   map[string][]byte
		file    []byte
	}
	parent := filepath.Join("testdata", "parent", "window-export")
	parentFiles := treeOf(t, parent)
	delete(parentFiles, ".")
	for _, n := range []int{1, 2} {
		cfg := Config{Input: fx.in}
		if n == 2 {
			cfg = parentConfig(fx)
		}
		restore := func(t *testing.T, path string) (*Engine, int64) {
			t.Helper()
			eng, cursor, err := Restore(cfg, path)
			if err != nil {
				t.Fatalf("restore after the failure: %v", err)
			}
			t.Cleanup(eng.Close)
			return eng, cursor["i"]
		}
		// fromParent restores an engine from a copy of the parent's
		// directory at at, returning it with the commit it holds.
		fromParent := func(t *testing.T, at string) (*Engine, commit) {
			copyDir(t, parent, at)
			eng, cursor := restore(t, at)
			return eng, commit{cursor: cursor, reports: allReports(t, eng), files: parentFiles}
		}
		// Each scenario leaves a previous commit at path and returns the
		// operation under test with the commit it is meant to produce.
		type scenario func(t *testing.T, path string) (prev commit, op func() error, next func() commit)
		for _, sc := range []struct {
			name  string
			setup scenario
		}{
			{"delta", func(t *testing.T, path string) (commit, func() error, func() commit) {
				var eng *Engine
				var prev commit
				if n == 1 {
					eng = newEngine(t, fx.in, nil)
					feedRows(t, eng, fx.early, fx.before)
					eng.Drain()
					if err := eng.WriteCheckpoint(path, map[string]int64{"i": 1}); err != nil {
						t.Fatal(err)
					}
					prev = commit{cursor: 1, reports: allReports(t, eng)}
				} else {
					eng, prev = fromParent(t, path)
				}
				feedRows(t, eng, fx.late, fx.after)
				eng.Drain()
				return prev,
					func() error { return eng.WriteCheckpoint(path, map[string]int64{"i": 2}) },
					func() commit { return commit{cursor: 2, reports: allReports(t, eng)} }
			}},
			{"compaction", func(t *testing.T, path string) (commit, func() error, func() commit) {
				if n == 2 {
					eng, same := fromParent(t, path)
					return same, eng.Compact, func() commit { return same }
				}
				eng := newEngine(t, fx.in, nil)
				feedRows(t, eng, fx.early, nil)
				for _, part := range ckptSlices(fx.before, 3) {
					feedRows(t, eng, nil, part)
					eng.Drain()
					if err := eng.WriteCheckpoint(path, map[string]int64{"i": 1}); err != nil {
						t.Fatal(err)
					}
				}
				same := commit{cursor: 1, reports: allReports(t, eng)}
				return same, eng.Compact, func() commit { return same }
			}},
			{"swap", func(t *testing.T, path string) (commit, func() error, func() commit) {
				prev := commit{file: []byte("\x00arbitrary bytes, not a checkpoint of any release")}
				if err := os.WriteFile(path, prev.file, 0o644); err != nil {
					t.Fatal(err)
				}
				var eng *Engine
				if n == 1 {
					eng = newEngine(t, fx.in, nil)
					feedRows(t, eng, fx.early, fx.before)
					eng.Drain()
				} else {
					eng, _ = fromParent(t, path+".parent")
				}
				return prev,
					func() error { return eng.WriteCheckpoint(path, map[string]int64{"i": 2}) },
					func() commit { return commit{cursor: 2, reports: allReports(t, eng)} }
			}},
		} {
			// A clean run lists the stages.
			path := filepath.Join(t.TempDir(), "ckpt")
			_, op, _ := sc.setup(t, path)
			hits := failAt(-1)
			if err := op(); err != nil {
				t.Fatalf("shards=%d %s: clean run: %v", n, sc.name, err)
			}
			atomicfile.Failpoint = nil
			assertOnlyCommitted(t, path)
			if len(*hits) < 6 {
				t.Fatalf("shards=%d %s: only %d stages consulted: %v", n, sc.name, len(*hits), *hits)
			}
			var sawPrev, sawNew bool
			for k, h := range *hits {
				t.Run(fmt.Sprintf("shards=%d/%s/%d-%s-%s", n, sc.name, k, h.stage, filepath.Base(h.path)), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "ckpt")
					prev, op, next := sc.setup(t, path)
					failAt(k)
					err := op()
					atomicfile.Failpoint = nil
					if err == nil {
						t.Fatal("injected failure did not surface")
					}
					want := next()

					// The crash: whatever the path holds now.
					held, err := os.ReadFile(path)
					manifest, _ := os.ReadFile(filepath.Join(path, ckptManifestName))
					switch {
					case prev.file != nil && err == nil && bytes.Equal(held, prev.file):
						// Before the swap: the file is refused by name, untouched.
						sawPrev = true
						if _, _, err := Restore(cfg, path); err == nil || !strings.Contains(err.Error(), retiredRelease) {
							t.Fatalf("restore of the file the swap did not replace: err = %v, want a refusal naming %s", err, retiredRelease)
						}
						if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, prev.file) {
							t.Fatalf("the refusal changed the file (%v)", err)
						}
					case prev.files != nil && bytes.Equal(manifest, prev.files[ckptManifestName]):
						// Before the commit point: the parent's files, byte
						// for byte, beside the attempt's debris.
						sawPrev = true
						for name, body := range prev.files {
							if got, err := os.ReadFile(filepath.Join(path, name)); err != nil || !bytes.Equal(got, body) {
								t.Fatalf("the parent's %s is not intact (%v)", name, err)
							}
						}
						restored, cursor := restore(t, path)
						if cursor != prev.cursor {
							t.Fatalf("the parent's commit restored cursor %d, want %d", cursor, prev.cursor)
						}
						diffReports(t, "previous commit", prev.reports, allReports(t, restored))
						restored.Close()
					default:
						restored, cursor := restore(t, path)
						if man, err := readCkptManifest(path); err != nil || len(man.Chains) != 1 {
							t.Fatalf("the path holds neither the previous commit nor one chain (%v)", err)
						}
						switch {
						case prev.file == nil && cursor == prev.cursor:
							sawPrev = true
							diffReports(t, "previous commit", prev.reports, allReports(t, restored))
						case cursor == want.cursor:
							sawNew = true
							diffReports(t, "new commit", want.reports, allReports(t, restored))
						default:
							t.Fatalf("restored cursor %d is neither the previous commit's %d nor the new one's %d", cursor, prev.cursor, want.cursor)
						}
						restored.Close()
					}

					// The retry, by the writer that saw the error.
					if err := op(); err != nil {
						t.Fatalf("retry: %v", err)
					}
					if man := assertOnlyCommitted(t, path); len(man.Chains) != 1 {
						t.Fatalf("the retry committed %d chains, want one", len(man.Chains))
					}
					again, cursor := restore(t, path)
					if cursor != want.cursor {
						t.Fatalf("cursor after the retry = %d, want %d", cursor, want.cursor)
					}
					diffReports(t, "after the retry", want.reports, allReports(t, again))
				})
			}
			// Failures on both sides of the commit point were exercised (a
			// compaction's two sides are the same commit).
			if !sawPrev || (sc.name != "compaction" && !sawNew) {
				t.Errorf("shards=%d %s: restored to the previous commit: %v, to the new one: %v", n, sc.name, sawPrev, sawNew)
			}
		}
	}
}

// TestTornCheckpointCorpus truncates a committed segment at every frame
// boundary (and a probe inside each frame) and requires the restore to
// return a clean error — never a panic, never a silently partial engine.
// The same corpus runs over a base this release wrote and over the delta
// of the previous release's window-export directory, where the intact base
// must not be restored around the damage.
func TestTornCheckpointCorpus(t *testing.T) {
	b := genBuild(7, 1000)
	in := inputFromBuild(b)
	in.Raw = nil

	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()
	plain := filepath.Join(t.TempDir(), "ckpt")
	if err := e.WriteCheckpoint(plain, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	fx := loadFixture()
	parent := filepath.Join(t.TempDir(), "ckpt")
	copyDir(t, filepath.Join("testdata", "parent", "window-export"), parent)

	for _, c := range []struct {
		name, dir string
		seg       int // the damaged segment's place in the chain
		restore   func(dir string) (interface{ Close() }, error)
	}{
		{"plain", plain, 0, func(dir string) (interface{ Close() }, error) {
			eng, _, err := Restore(Config{Input: in}, dir)
			return eng, err
		}},
		{"parent", parent, 1, func(dir string) (interface{ Close() }, error) {
			eng, _, err := Restore(parentConfig(fx), dir)
			return eng, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			man, err := readCkptManifest(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			segName := man.Chains[0][c.seg].Name
			whole, err := os.ReadFile(filepath.Join(c.dir, segName))
			if err != nil {
				t.Fatal(err)
			}
			if eng, err := c.restore(c.dir); err != nil {
				t.Fatalf("the undamaged directory does not restore: %v", err)
			} else {
				eng.Close()
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

			// try restores a copy of the directory whose segment is seg
			// (nil: absent) and requires a refusal.
			base := t.TempDir()
			try := func(name string, seg []byte) error {
				t.Helper()
				tdir := filepath.Join(base, name)
				copyDir(t, c.dir, tdir)
				if err := os.Remove(filepath.Join(tdir, segName)); err != nil {
					t.Fatal(err)
				}
				if seg != nil {
					if err := os.WriteFile(filepath.Join(tdir, segName), seg, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				eng, err := c.restore(tdir)
				if err == nil {
					eng.Close()
					t.Fatalf("%s: restore of a damaged checkpoint succeeded", name)
				}
				return err
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
			// A committed manifest naming an absent segment is damage, not
			// "no checkpoint yet".
			err = try("missing-seg", nil)
			if !errors.Is(err, store.ErrCorrupt) || errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missing segment: err = %v, want store.ErrCorrupt and not os.ErrNotExist", err)
			}
		})
	}

	// Damage the framing cannot see: every frame and checksum intact, but
	// the sequence column runs backwards. Replaying it would hand the
	// window records out of order, so it is refused as corruption by
	// plain and exporting engines alike.
	assertCorruptSegment(t, in, "backwards sequence column", nonIncreasingSeqSegment(t, in, b))
}

// TestRestoreRefusesDamagedRoster: the router writes its roster as a log
// ascending by sequence, every fingerprint once. A roster frame intact in
// framing and checksum that breaks either is a damaged checkpoint, refused
// as corruption — not sorted back into order, and not deduplicated first
// observation wins, which would restore an engine the writer never was.
func TestRestoreRefusesDamagedRoster(t *testing.T) {
	b := genBuild(7, 1000)
	in := inputFromBuild(b)
	in.Raw = nil
	assertCorruptSegment(t, in, "backwards certificate sequences", rewriteFirstFrame(t, in, b, segFrameCerts, func(d *store.Decoder) []byte {
		certs, seqs := d.Certs()
		seqs[0], seqs[1] = seqs[1], seqs[0]
		return store.AppendCerts(nil, certs, seqs)
	}))
	assertCorruptSegment(t, in, "a repeated certificate", repeatedCertSegment(t, in, b))
}

// assertCorruptSegment requires a directory whose one segment is seg to be
// refused as store.ErrCorrupt by plain and exporting engines alike.
func assertCorruptSegment(t *testing.T, in *core.Input, what string, seg []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-1.ckpt"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptManifestName), []byte(oneSegmentManifest(len(seg))), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Input: in}, {Input: in, TrackExport: true}} {
		eng, _, err := Restore(cfg, dir)
		if err == nil {
			eng.Close()
			t.Fatalf("TrackExport=%v: restore of %s succeeded", cfg.TrackExport, what)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("TrackExport=%v: %s: err = %v, want store.ErrCorrupt", cfg.TrackExport, what, err)
		}
	}
}

// oneSegmentManifest is the MANIFEST of a directory whose chain is the one
// segment seg-1.ckpt of the given size.
func oneSegmentManifest(size int) string {
	return fmt.Sprintf(`{"Version":3,"Gen":1,"NextSeg":2,"Chains":[[{"Name":"seg-1.ckpt","Bytes":%d}]],"Router":{}}`, size)
}

// nonIncreasingSeqSegment returns a base segment that is intact in every
// frame and checksum but whose sequence column runs backwards: an
// exporting engine's checkpoint with the first two stamps of its first
// connection frame swapped.
func nonIncreasingSeqSegment(t testing.TB, in *core.Input, b *workload.Build) []byte {
	return rewriteFirstFrame(t, in, b, segFrameConns, func(d *store.Decoder) []byte {
		conns, seqs := d.Conns()
		seqs[0], seqs[1] = seqs[1], seqs[0]
		return store.AppendConns(nil, conns, seqs)
	})
}

// repeatedCertSegment returns a base segment intact in every frame and
// checksum whose roster holds a certificate twice: the second entry of its
// first roster frame replaced by the first, under its own sequence.
func repeatedCertSegment(t testing.TB, in *core.Input, b *workload.Build) []byte {
	return rewriteFirstFrame(t, in, b, segFrameCerts, func(d *store.Decoder) []byte {
		certs, seqs := d.Certs()
		certs[1] = certs[0]
		return store.AppendCerts(nil, certs, seqs)
	})
}

// rewriteFirstFrame returns an exporting engine's base segment over b with
// the payload of its first frame of type typ — at least two records —
// replaced by what rewrite makes of it, every frame re-checksummed.
func rewriteFirstFrame(t testing.TB, in *core.Input, b *workload.Build, typ byte, rewrite func(d *store.Decoder) []byte) []byte {
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
	f, err := os.Open(filepath.Join(dir, man.Chains[0][0].Name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []byte
	rewritten := false
	for {
		ft, body, err := store.ReadFrame(f, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ft == typ && !rewritten {
			d := store.NewDecoder(body)
			body, rewritten = rewrite(d), true
			if err := d.End(); err != nil {
				t.Fatal(err)
			}
		}
		if out, err = store.EndFrame(append(store.BeginFrame(out, ft), body...), len(out)); err != nil {
			t.Fatal(err)
		}
	}
	if !rewritten {
		t.Fatalf("segment has no frame of type %d", typ)
	}
	return out
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
	// The delta pays a small constant floor (the commit's encode buffer,
	// the manifest) plus O(delta records); re-serializing the
	// ~2000-record state — what the removed full copy under the engine
	// lock used to do every interval — costs several times that.
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
	if len(man.Chains[0]) < n {
		t.Fatalf("manifest has %d segments, want at least %d", len(man.Chains[0]), n)
	}
	return uint64(man.Chains[0][n-1].Bytes)
}

// TestShardedCheckpointIsODelta is the same gate fed in batches, counting
// the manifest: with a large state committed, the second commit's bytes
// and allocations must follow the interval, not the window.
func TestShardedCheckpointIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, c := range b.Raw.Certs {
		s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	nBig := len(b.Raw.Conns) - 64
	s.IngestConnBatch(b.Raw.Conns[:nBig])
	s.Drain()
	commit := func() (alloc, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := s.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		man, err := readCkptManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, chain := range man.Chains {
			bytes += uint64(chain[len(chain)-1].Bytes)
		}
		fi, err := os.Stat(filepath.Join(dir, ckptManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, bytes + uint64(fi.Size())
	}
	baseAlloc, baseBytes := commit()
	s.IngestConnBatch(b.Raw.Conns[nBig:])
	s.Drain()
	deltaAlloc, deltaBytes := commit()
	if deltaBytes*8 > baseBytes {
		t.Fatalf("second commit wrote %d bytes vs %d for the base — not a delta", deltaBytes, baseBytes)
	}
	// The same constant floor as fed one by one, plus O(delta).
	if deltaAlloc*3 > baseAlloc {
		t.Fatalf("second commit allocated %d bytes vs %d for the base — O(state) work on the delta path", deltaAlloc, baseAlloc)
	}
}

// TestEmptyCommitIsAStateFrame: with nothing new since the previous commit
// a checkpoint writes one state frame — under a kilobyte, on the build the
// backfill workload runs (scale 200), where an earlier release rewrote
// 1.1 MB of detector state — and what a commit writes and allocates does
// not depend on how much §3.2 evidence is already committed: a build with
// several times the evidence costs the same.
func TestEmptyCommitIsAStateFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	scales := []int{2000, 200}
	if testing.Short() {
		scales = []int{2000, 600}
	}
	var bytes, mallocs, pairs [2]uint64
	for k, scale := range scales {
		b := genBuild(20240504, scale)
		in := inputFromBuild(b)
		in.Raw = nil
		s := newEngine(t, in, nil)
		feedBatches(t, s, certRecords(b), b.Raw.Conns, 512)
		s.Drain()
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := s.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
		// The fewest of five empty commits: the runtime's own
		// allocations land in the count now and then.
		mallocs[k] = math.MaxUint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.WriteCheckpoint(dir, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs[k] = min(mallocs[k], after.Mallocs-before.Mallocs)
		}
		man, err := readCkptManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Chains) != 1 || len(man.Chains[0]) != 6 {
			t.Fatalf("chains %v after six commits, want one of six segments", man.Chains)
		}
		bytes[k] = uint64(man.Chains[0][5].Bytes)
		pairs[k] = uint64(s.ckpt.pairs)
		s.Close()
	}
	if pairs[1] < 3*pairs[0] || pairs[0] == 0 {
		t.Fatalf("%d and %d evidence pairs committed: the builds do not differ enough to show anything", pairs[0], pairs[1])
	}
	t.Logf("empty commit %d bytes / %d mallocs over %d committed pairs, %d / %d over %d", bytes[0], mallocs[0], pairs[0], bytes[1], mallocs[1], pairs[1])
	if bytes[1] >= 1000 {
		t.Errorf("an empty commit wrote %d bytes of segments, want under 1000", bytes[1])
	}
	if diff := int64(bytes[1]) - int64(bytes[0]); diff > 8 || diff < -8 {
		t.Errorf("an empty commit wrote %d bytes over %d committed pairs and %d over %d — it follows the evidence", bytes[0], pairs[0], bytes[1], pairs[1])
	}
	if mallocs[1] > mallocs[0]+16 {
		t.Errorf("an empty commit allocated %d times over %d committed pairs and %d over %d — it follows the evidence", mallocs[0], pairs[0], mallocs[1], pairs[1])
	}
}

// FuzzRestore hammers the restore path with arbitrary segment bytes: any
// input must produce either a working engine or a clean error — never a
// panic. Each input is tried as a one-chain directory's only segment and
// as the delta after the intact base of the previous release's
// window-export directory. The seed corpus is valid committed segments —
// a base and the parent's base and delta — and damaged ones: truncated,
// empty, a backwards sequence column, a repeated certificate, and a
// segment of gob frames, so the refusal path is fuzzed too.
func FuzzRestore(f *testing.F) {
	b := genBuild(7, 20000)
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
	seed, err := os.ReadFile(filepath.Join(seedDir, man.Chains[0][0].Name))
	if err != nil {
		f.Fatal(err)
	}
	parentDir := filepath.Join("testdata", "parent", "window-export")
	parentMan, err := readCkptManifest(parentDir)
	if err != nil {
		f.Fatal(err)
	}
	base, fuzzed := parentMan.Chains[0][0], parentMan.Chains[0][1].Name
	baseSeg, err := os.ReadFile(filepath.Join(parentDir, base.Name))
	if err != nil {
		f.Fatal(err)
	}
	deltaSeg, err := os.ReadFile(filepath.Join(parentDir, fuzzed))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add(nonIncreasingSeqSegment(f, in, b))
	f.Add(baseSeg)
	f.Add(deltaSeg)
	f.Add(gobSegment(f))
	f.Add(repeatedCertSegment(f, in, b))

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1.ckpt"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ckptManifestName), []byte(oneSegmentManifest(len(seg))), 0o644); err != nil {
			t.Fatal(err)
		}
		eng, _, err := Restore(Config{Input: in}, dir)
		if err == nil {
			eng.Close()
		}

		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, base.Name), baseSeg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fuzzed), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		m := *parentMan
		m.Chains = [][]ckptSeg{{base, {Name: fuzzed, Bytes: int64(len(seg))}}}
		buf, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ckptManifestName), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		continued, _, err := Restore(Config{Input: in}, dir)
		if err == nil {
			continued.Close()
		}
	})
}

// TestBinarySegmentTruncated: a segment of this release's frames cut at any
// byte but a frame boundary does not read as frames, and no frame's payload
// cut at any byte decodes — each is store.ErrCorrupt. (A cut at a boundary
// is what the size the manifest records is for: TestTornCheckpointCorpus.)
func TestBinarySegmentTruncated(t *testing.T) {
	fx := loadFixture()
	e := newEngine(t, fx.in, nil)
	// A segment of a few kilobytes (every cut re-reads it): 96 connections
	// and the punctual certificates their chains name.
	conns := fx.before[:96]
	named := map[ids.Fingerprint]bool{}
	for _, c := range conns {
		for _, fp := range append(slices.Clone(c.ServerChain), c.ClientChain...) {
			named[fp] = true
		}
	}
	var certs []*certmodel.CertInfo
	for _, c := range fx.early {
		if named[c.Fingerprint] {
			certs = append(certs, c)
		}
	}
	feedRows(t, e, certs, conns)
	e.Drain()
	if e.Stats().PendingCerts == 0 {
		t.Fatal("vacuous: nothing parked for the state frame to carry")
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	man, err := readCkptManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, man.Chains[0][0].Name))
	if err != nil {
		t.Fatal(err)
	}

	// frames reads b as frames and returns each payload with its type.
	type frame struct {
		typ  byte
		body []byte
	}
	frames := func(b []byte) (out []frame, err error) {
		for r := bytes.NewReader(b); ; {
			typ, body, err := store.ReadFrame(r, nil)
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, frame{typ, body})
		}
	}
	all, err := frames(whole)
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{0: true}
	seen, off := map[byte]bool{}, 0
	for _, f := range all {
		off += len(f.body) + 9
		boundary[off], seen[f.typ] = true, true
	}
	if len(seen) != 4 {
		t.Fatalf("segment holds frame types %v, want state, roster, evidence and connections", seen)
	}
	for cut := 0; cut < len(whole); cut++ {
		if _, err := frames(whole[:cut]); boundary[cut] != (err == nil) || (err != nil && !errors.Is(err, store.ErrCorrupt)) {
			t.Fatalf("cut at %d of %d (frame boundary: %v): err = %v", cut, len(whole), boundary[cut], err)
		}
	}
	for _, f := range all {
		for cut := 0; cut < len(f.body); cut++ {
			var err error
			if f.typ == segFrameState {
				_, err = decodeSegState(f.body[:cut])
			} else {
				_, err = decodeRecords(f.typ, f.body[:cut])
			}
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("frame type %d payload cut at %d of %d: err = %v, want store.ErrCorrupt", f.typ, cut, len(f.body), err)
			}
		}
	}
}

// TestManifestSegmentNamesChecked: a commit creates seg-<NextSeg>.ckpt
// before its manifest lands, so a damaged manifest that already names that
// file would have the next commit truncate a segment the committed chain
// still needs — and a name twice, or one that is not seg-<n>.ckpt below
// NextSeg, says as much about the manifest. A restore refuses each as
// corruption, so does a first write into the directory, and the directory
// is left as it was.
func TestManifestSegmentNamesChecked(t *testing.T) {
	b := genBuild(7, 1000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	feedBatches(t, e, certRecords(b), b.Raw.Conns, 512)
	e.Drain()
	good := filepath.Join(t.TempDir(), "ckpt")
	for i := 0; i < 2; i++ {
		if err := e.WriteCheckpoint(good, nil); err != nil {
			t.Fatal(err)
		}
	}
	written, err := readCkptManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	if written.NextSeg != 3 || len(written.Chains[0]) != 2 {
		t.Fatalf("two commits left chain %v (next segment %d), want seg-1 and seg-2 (3)", written.Chains[0], written.NextSeg)
	}
	for _, c := range []struct {
		name  string
		names [2]string // the chain's two segments, renamed
	}{
		{"the next commit's name", [2]string{"seg-1.ckpt", "seg-3.ckpt"}},
		{"a name twice", [2]string{"seg-1.ckpt", "seg-1.ckpt"}},
		{"not a segment name", [2]string{"seg-1.ckpt", "seg-2.old"}},
		{"not the name a commit gives", [2]string{"seg-1.ckpt", "seg-02.ckpt"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			man := *written
			man.Chains = [][]ckptSeg{slices.Clone(written.Chains[0])}
			for i, name := range c.names {
				seg, err := os.ReadFile(filepath.Join(good, man.Chains[0][i].Name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
					t.Fatal(err)
				}
				man.Chains[0][i].Name = name
			}
			buf, err := json.Marshal(&man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ckptManifestName), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			before := treeOf(t, dir)
			if eng, _, err := Restore(Config{Input: in}, dir); !errors.Is(err, store.ErrCorrupt) {
				if err == nil {
					eng.Close()
				}
				t.Fatalf("restore: err = %v, want store.ErrCorrupt", err)
			}
			if err := e.WriteCheckpoint(dir, nil); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("a first write into the directory: err = %v, want store.ErrCorrupt", err)
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("the refusal changed the directory")
			}
		})
	}
}

package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/store"
	"repro/internal/workload"
)

// The fixtures under testdata/parent are checkpoints written by parent
// commits (see the README there): real bytes of every shape the previous
// release may hand this one — its own directories, one chain of frames
// 4–7, as it writes them, folds them, and rewrites what it read from its
// own predecessor.

// fixtureRows is the slice of the fixture build those checkpoints were
// fed: every 24th connection and the certificates their chains name,
// small enough to commit. Keep in step with testdata/parent/README.md.
func fixtureRows(b *workload.Build) (certs []*certmodel.CertInfo, conns []core.ConnRecord) {
	seen := map[ids.Fingerprint]bool{}
	for i := 0; i < len(b.Raw.Conns); i += 24 {
		c := b.Raw.Conns[i]
		conns = append(conns, c)
		for _, chain := range [][]ids.Fingerprint{c.ServerChain, c.ClientChain} {
			for _, fp := range chain {
				if cert := b.Raw.Certs[fp]; cert != nil && !seen[fp] {
					seen[fp] = true
					certs = append(certs, cert)
				}
			}
		}
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	return certs, conns
}

// fixture is the input the fixtures were cut from, in the order they were
// fed: the punctual certificates, the connections before the cut (what
// the checkpoints hold), then every seventh certificate — late, so the
// checkpoints hold connections parked on it — and the remaining
// connections.
type fixture struct {
	in            *core.Input
	early, late   []*certmodel.CertInfo
	before, after []core.ConnRecord
}

func loadFixture() *fixture {
	b := genBuild(7, 20000)
	fx := &fixture{in: inputFromBuild(b)}
	fx.in.Raw = nil
	certs, conns := fixtureRows(b)
	for i, c := range certs {
		if i%7 == 0 {
			fx.late = append(fx.late, c)
		} else {
			fx.early = append(fx.early, c)
		}
	}
	cut := len(conns) * 3 / 5
	fx.before, fx.after = conns[:cut], conns[cut:]
	return fx
}

// parentConfig is the configuration the fixtures' writers ran under: every
// apply runs an eviction pass, so the retained window is a function of the
// rows applied, not of where a restart fell between passes.
func parentConfig(fx *fixture) Config {
	return Config{Input: fx.in, TrackExport: true, Retention: 400 * 24 * time.Hour, EvictEvery: 1}
}

func feedRows(t testing.TB, e *Engine, certs []*certmodel.CertInfo, conns []core.ConnRecord) {
	t.Helper()
	for _, c := range certs {
		if !e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
			t.Fatal("cert event rejected")
		}
	}
	for i := range conns {
		if !e.IngestConn(&conns[i]) {
			t.Fatal("conn event rejected")
		}
	}
}

// allReports materializes the 23 reports by name.
func allReports(t testing.TB, e interface{ Report(string) (any, error) }) map[string]any {
	t.Helper()
	names := ReportNames()
	if len(names) != 23 {
		t.Fatalf("%d reports registered, want 23", len(names))
	}
	out := make(map[string]any, len(names))
	for _, name := range names {
		r, err := e.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = r
	}
	return out
}

func diffReports(t testing.TB, what string, want, got map[string]any) {
	t.Helper()
	for name := range want {
		if !reflect.DeepEqual(want[name], got[name]) {
			t.Errorf("%s: report %s differs", what, name)
		}
	}
}

// copyDir copies the file tree at src to dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertOnlyCommitted requires the checkpoint at path to be a directory
// holding its version-3 MANIFEST, the segments it names, and nothing
// else — no older format's files, no temp files, no half-swapped
// directory beside it — and returns the manifest.
func assertOnlyCommitted(t testing.TB, path string) *ckptManifest {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(path, ckptManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"Version": 3`) {
		t.Fatalf("MANIFEST is not version 3:\n%s", buf)
	}
	man, err := readCkptManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ckptManifestName}
	for _, sg := range man.Chains[0] {
		want = append(want, sg.Name)
	}
	sort.Strings(want)
	ents, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ent := range ents {
		got = append(got, ent.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint directory holds %v, want exactly %v", got, want)
	}
	for _, beside := range []string{path + ckptSwapSuffix, atomicfile.TempName(path)} {
		if _, err := os.Lstat(beside); !os.IsNotExist(err) {
			t.Fatalf("%s left beside the checkpoint", beside)
		}
	}
	return man
}

func readJSON(t testing.TB, path string, into any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, into); err != nil {
		t.Fatal(err)
	}
}

// writerRecord is what a fixture's writer recorded at its last commit,
// beside the directory: its Stats and its whole Export(0, 0).
type writerRecord struct {
	Stats  Stats
	Export *ExportState
}

// rowExport is an ExportState in the layout the parent's fixtures were
// written in: each record in a row beside its sequence.
type rowExport struct {
	ExportState
	Certs []struct {
		Seq  uint64
		Cert *certmodel.CertInfo
	}
	Conns []struct {
		Seq  uint64
		Conn core.ConnRecord
	}
}

// readWriterRecord reads a fixture's writer record, its export turned
// into the engine's columns.
func readWriterRecord(t testing.TB, path string) *writerRecord {
	t.Helper()
	var rec struct {
		Stats  Stats
		Export rowExport
	}
	readJSON(t, path, &rec)
	st := rec.Export.ExportState
	for _, c := range rec.Export.Certs {
		st.Certs, st.CertSeqs = append(st.Certs, c.Cert), append(st.CertSeqs, c.Seq)
	}
	for _, c := range rec.Export.Conns {
		st.Conns, st.ConnSeqs = append(st.Conns, c.Conn), append(st.ConnSeqs, c.Seq)
	}
	return &writerRecord{Stats: rec.Stats, Export: &st}
}

// recordOf is e's record, as a writer makes one.
func recordOf(t *testing.T, e *Engine) *writerRecord {
	t.Helper()
	return &writerRecord{Stats: e.Stats(), Export: mustExport(t, e, 0, 0)}
}

// held requires e to hold exactly what the writer recorded: the counters
// Stats reports and the whole export — numbering, retained window, roster,
// §3.2 evidence and parked count.
func (w *writerRecord) held(t *testing.T, e *Engine, when string) {
	t.Helper()
	got, want := e.Stats(), w.Stats
	for _, st := range []*Stats{&got, &want} { // what a restart legitimately moves
		st.Rebuilds, st.Dirty, st.LastCheckpoint, st.CheckpointAge = 0, false, time.Time{}, 0
	}
	if got != want {
		t.Fatalf("%s: stats %+v, the writer had %+v", when, got, want)
	}
	exp := mustExport(t, e, 0, 0)
	// NextPair is a position in this engine's own detector log, which a
	// recorded export does not carry; a restored engine numbers under a
	// fresh epoch, and continues the writer's cursor (deltaSince).
	exp.NextPair, exp.Epoch = w.Export.NextPair, w.Export.Epoch
	if !reflect.DeepEqual(exp, w.Export) {
		t.Fatalf("%s: export differs from the writer's: %d/%d certs, %d/%d conns, next %d/%d, evidence equal: %v", when,
			len(exp.Certs), len(w.Export.Certs), len(exp.Conns), len(w.Export.Conns), exp.NextSeq, w.Export.NextSeq,
			reflect.DeepEqual(exp.Evidence, w.Export.Evidence))
	}
}

// frameTypes lists the type byte of every frame of a committed segment.
func frameTypes(t *testing.T, dir string, sg ckptSeg) (types []byte) {
	t.Helper()
	err := eachFrame(filepath.Join(dir, sg.Name), sg.Bytes, func(typ byte, _ []byte) error {
		types = append(types, typ)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return types
}

// deltaSince requires the writer's cursor from before the upgrade to get,
// from e resumed with the rows fed since, a delta of exactly those rows,
// in the order fed — not a 410. Under e's retention, which sweeps on every
// apply (parentConfig), that is the connections still inside it.
func deltaSince(t *testing.T, e *Engine, next, epoch uint64, fx *fixture) {
	t.Helper()
	delta, err := e.Export(next, epoch)
	if err != nil {
		t.Fatalf("the writer's cursor after the upgrade: %v", err)
	}
	conns := fx.after
	if delta.Retention > 0 {
		cutoff := delta.Watermark.Add(-delta.Retention)
		conns = nil
		for _, c := range fx.after {
			if !c.TS.Before(cutoff) {
				conns = append(conns, c)
			}
		}
	}
	if len(delta.Certs) != len(fx.late) || len(delta.Conns) != len(conns) {
		t.Fatalf("delta carries %d certificates and %d connections, want the %d and %d fed since",
			len(delta.Certs), len(delta.Conns), len(fx.late), len(conns))
	}
	for i, c := range delta.Certs {
		if c.Fingerprint != fx.late[i].Fingerprint {
			t.Fatalf("delta certificate %d is %s, want %s as fed", i, c.Fingerprint, fx.late[i].Fingerprint)
		}
	}
	for i, c := range delta.Conns {
		if c.UID != conns[i].UID {
			t.Fatalf("delta connection %d is %s, want %s as fed", i, c.UID, conns[i].UID)
		}
	}
}

// TestMigrateParentCheckpoints runs every directory the parent fixtures
// have held. The three the previous release can leave — binary-export
// (7a5e8ef's writer, the same shape), window-export (a folded base and a
// delta) and rewritten-export (its first commit over a two-chain gob
// directory) — restore to exactly what their writer recorded, resume to
// the 23 reports of an engine that was never stopped, serve the writer's
// cursor exactly the rows fed since, and are continued in place: the
// first commit is a delta on the writer's chain, the next one carries
// every frame type, and a fold restores to the same place. (The reference
// is an engine under the writer's retention, not the batch pipeline:
// batch has no window.) The older writers' directories are refused by
// name under their writer's own Config and left as they were: the
// routed-* and roster-* ones — a version-2 MANIFEST over gob frames, a
// chain per shard — which the previous release read and rewrote, and the
// v2-* ones from before the router. Their bytes are no longer kept: the
// refusal is decided from the manifest alone.
func TestMigrateParentCheckpoints(t *testing.T) {
	fx := loadFixture()
	cfg := parentConfig(fx)
	ref := newEngine(t, fx.in, func(c *Config) { *c = cfg })
	feedRows(t, ref, fx.early, fx.before)
	feedRows(t, ref, fx.late, fx.after)
	ref.Drain()
	want := allReports(t, ref)

	for _, c := range []struct {
		name string
		segs int // the writer's chain: a base and its deltas
	}{
		{"binary-export", 3},
		{"window-export", 2},
		{"rewritten-export", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), c.name)
			copyDir(t, filepath.Join("testdata", "parent", c.name), dir)
			wrote := readWriterRecord(t, filepath.Join("testdata", "parent", c.name+".export.json"))
			if wrote.Stats.Evicted == 0 || wrote.Stats.PendingCerts == 0 || len(wrote.Export.Evidence.Observed) == 0 {
				t.Fatalf("vacuous: the writer evicted %d, parked %d", wrote.Stats.Evicted, wrote.Stats.PendingCerts)
			}
			written, err := readCkptManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(written.Chains[0]) != c.segs {
				t.Fatalf("the fixture's chain has %d segments, want %d", len(written.Chains[0]), c.segs)
			}
			for _, sg := range written.Chains[0] {
				for _, typ := range frameTypes(t, dir, sg) {
					if typ < segFrameState {
						t.Fatalf("fixture segment %s holds frame type %d: not its writer's bytes", sg.Name, typ)
					}
				}
			}
			restore := func() *Engine {
				t.Helper()
				e, cursor, err := Restore(cfg, dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				if cursor["conn_index"] != int64(len(fx.before)) {
					t.Fatalf("cursor = %v, want conn_index=%d", cursor, len(fx.before))
				}
				return e
			}

			resumed := restore()
			wrote.held(t, resumed, "restored from the parent's bytes")
			feedRows(t, resumed, fx.late, fx.after)
			resumed.Drain()
			diffReports(t, "resumed from the parent's bytes", want, allReports(t, resumed))
			deltaSince(t, resumed, wrote.Export.NextSeq, wrote.Export.Epoch, fx)
			resumed.Close() // it never wrote: the directory is still the parent's

			// The upgrade's first commit, over nothing new: one state frame
			// on the writer's chain.
			cursor := map[string]int64{"conn_index": int64(len(fx.before))}
			upgraded := restore()
			if err := upgraded.WriteCheckpoint(dir, cursor); err != nil {
				t.Fatal(err)
			}
			chain := assertOnlyCommitted(t, dir).Chains[0]
			if len(chain) != c.segs+1 || !reflect.DeepEqual(chain[:c.segs], written.Chains[0]) {
				t.Fatalf("chain %v, want the writer's %v and one delta", chain, written.Chains[0])
			}
			if types := frameTypes(t, dir, chain[c.segs]); len(types) != 1 || types[0] != segFrameState {
				t.Fatalf("the delta over nothing new holds frames %v, want one state frame", types)
			}
			wrote.held(t, restore(), "restored from the first commit")

			// It goes on: the late certificates and the rest of the
			// connections, a delta — evidence pairs, roster and connection
			// frames this time — and a fold.
			feedRows(t, upgraded, fx.late, fx.after)
			upgraded.Drain()
			if err := upgraded.WriteCheckpoint(dir, cursor); err != nil {
				t.Fatal(err)
			}
			chain = assertOnlyCommitted(t, dir).Chains[0]
			types := frameTypes(t, dir, chain[len(chain)-1])
			for _, typ := range []byte{segFrameState, segFrameCerts, segFrameEvidence, segFrameConns} {
				if !slices.Contains(types, typ) {
					t.Fatalf("the delta holds frames %v, want one of type %d among them", types, typ)
				}
			}
			now := recordOf(t, upgraded)
			continued := restore()
			now.held(t, continued, "restored from the continued chain")
			diffReports(t, "restored from the continued chain", want, allReports(t, continued))
			if err := upgraded.Compact(); err != nil {
				t.Fatal(err)
			}
			if man := assertOnlyCommitted(t, dir); len(man.Chains[0]) != 1 {
				t.Fatalf("chain %v after the fold, want one base", man.Chains[0])
			}
			folded := restore()
			now.held(t, folded, "restored from the folded base")
			diffReports(t, "restored from the folded base", want, allReports(t, folded))
		})
	}

	for _, c := range []parentRefusal{
		{"routed-plain", false, 2, 1, 2, true, "a version-2 MANIFEST", previousRelease},
		{"routed-export", true, 2, 1, 2, true, "a version-2 MANIFEST", previousRelease},
		{"routed-sharded-export", true, 2, 2, 2, true, "a version-2 MANIFEST", previousRelease},
		{"roster-plain", false, 2, 1, 2, true, "a version-2 MANIFEST", previousRelease},
		{"roster-export", true, 2, 1, 2, true, "a version-2 MANIFEST", previousRelease},
		{"roster-sharded-export", true, 2, 2, 2, true, "a version-2 MANIFEST", previousRelease},
		{"v2-plain", false, 2, 1, 2, false, "a version-2 MANIFEST without router state", retiredRelease},
		{"v2-export", true, 2, 1, 2, false, "a version-2 MANIFEST without router state", retiredRelease},
	} {
		t.Run(c.name, func(t *testing.T) { c.refused(t, fx) })
	}
}

// TestParentGobDirectories: the directories the previous release read and
// rewrote with its first commit — the detector-* writers' version-2
// MANIFEST over gob frames, one chain or one per shard, and the
// binary-sharded-export writer's two chains of frames 4–7 — are refused,
// naming that release, under their writer's Config, and left as they
// were. A deployment that ran it and committed once holds
// rewritten-export's shape instead (TestMigrateParentCheckpoints).
func TestParentGobDirectories(t *testing.T) {
	fx := loadFixture()
	for _, c := range []parentRefusal{
		{"detector-export", true, 2, 1, 3, true, "a version-2 MANIFEST", previousRelease},
		{"detector-sharded-export", true, 2, 2, 3, true, "a version-2 MANIFEST", previousRelease},
		{"binary-sharded-export", true, 3, 2, 3, true, "a MANIFEST naming 2 chains", previousRelease},
	} {
		t.Run(c.name, func(t *testing.T) { c.refused(t, fx) })
	}
}

// parentRefusal is a directory a parent fixture's writer left that this
// release refuses: the writer's manifest shape — version, chains of segs
// segments each, router state or none — and the refusal it must meet.
type parentRefusal struct {
	name                  string
	export                bool // the writer ran under TrackExport
	version, chains, segs int
	router                bool
	shape, release        string
}

func (c parentRefusal) refused(t *testing.T, fx *fixture) {
	assertRefused(t, Config{Input: fx.in, TrackExport: c.export}, c.shape, c.release,
		parentDir(c.version, c.chains, c.segs, c.router))
}

// parentDir synthesizes the files of a directory under the checkpoint path
// ckpt: a MANIFEST of the given version naming chains of segs segments
// each, with router state or without, over segments a refusal never
// opens.
func parentDir(version, chains, segs int, router bool) map[string]string {
	files := map[string]string{}
	man := ckptManifest{Version: version, Gen: uint64(segs), NextSeg: 1, Cursor: map[string]int64{"conn_index": 288}}
	for i := 0; i < chains; i++ {
		var chain []ckptSeg
		for j := 0; j < segs; j++ {
			name := segName(man.NextSeg)
			man.NextSeg++
			chain = append(chain, ckptSeg{Name: name, Bytes: int64(len(unreadSegment))})
			files["ckpt/"+name] = unreadSegment
		}
		man.Chains = append(man.Chains, chain)
	}
	if router {
		man.Router = &routerState{NextSeq: 555, CertsRouted: 267}
	}
	buf, err := json.Marshal(&man)
	if err != nil {
		panic(err)
	}
	files["ckpt/"+ckptManifestName] = string(buf)
	return files
}

// gobSegment is a segment as a version-2 writer began one: one intact
// frame of gob type 1, the state frame, whose payload no later release
// decodes.
func gobSegment(t testing.TB) []byte {
	t.Helper()
	seg, err := store.EndFrame(append(store.BeginFrame(nil, 1), "a gob-encoded state"...), 0)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// treeOf maps every path under root to its bytes (a directory to nil).
func treeOf(t testing.TB, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			tree[rel] = nil
			return nil
		}
		tree[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRetiredCheckpointsRefused: each checkpoint shape this release does
// not read is refused by name — never as "no checkpoint yet", which would
// let a daemon start empty and sweep the files with its first commit —
// naming the build that rewrites it, and the tree is left byte for byte
// as it was: nothing swapped in, no temp file collected. Five shapes are
// older than the previous release's and name 7a5e8ef; three the previous
// release still read — a version-2 MANIFEST, more than one chain, a chain
// holding gob frames — and name it. The inputs are synthesized: all but
// the last are decided from the path and the manifest alone.
func TestRetiredCheckpointsRefused(t *testing.T) {
	fx := loadFixture()
	seg := unreadSegment
	chain := fmt.Sprintf(`[[{"Name":"seg-1.ckpt","Bytes":%d}]]`, len(seg))
	gob := gobSegment(t)
	for _, c := range []struct {
		name, shape, release string
		files                map[string]string // under the checkpoint path's parent
	}{
		{"single file", "single-file checkpoint", retiredRelease, map[string]string{
			"ckpt":     "\x00arbitrary bytes, not a checkpoint of any release",
			"ckpt.tmp": "half-written checkpoint",
		}},
		{"manifest.json", "manifest.json", retiredRelease, map[string]string{
			"ckpt/manifest.json":   `{"Version":1,"Shards":1,"Files":["shard-0.g2.ckpt"]}`,
			"ckpt/shard-0.g2.ckpt": seg,
		}},
		{"version 1", "version-1 MANIFEST", retiredRelease, map[string]string{
			"ckpt/MANIFEST":   `{"Version":1,"Gen":1,"NextSeg":2,"Segments":` + chain[1:len(chain)-1] + `}`,
			"ckpt/seg-1.ckpt": seg,
		}},
		{"version 2 without router", "version-2 MANIFEST without router state", retiredRelease, parentDir(2, 1, 1, false)},
		{"certificate sequences", "lists certificate sequences", retiredRelease, map[string]string{
			"ckpt/MANIFEST": `{"Version":2,"Gen":1,"NextSeg":2,"Chains":` + chain + `,` +
				`"Router":{"NextSeq":1,"CertsRouted":1,"Epoch":7,"CertSeqs":{"00e4":0}}}`,
			"ckpt/seg-1.ckpt": seg,
		}},
		{"version 2", "a version-2 MANIFEST", previousRelease, parentDir(2, 1, 1, true)},
		{"two chains", "a MANIFEST naming 2 chains", previousRelease, parentDir(3, 2, 1, true)},
		{"gob frame", "a chain holding gob frames", previousRelease, map[string]string{
			"ckpt/MANIFEST":   oneSegmentManifest(len(gob)),
			"ckpt/seg-1.ckpt": string(gob),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			assertRefused(t, Config{Input: fx.in}, c.shape, c.release, c.files)
		})
	}
}

// unreadSegment stands in for a segment a refusal never opens.
const unreadSegment = "segment bytes a refusal never reads"

// assertRefused writes files under a fresh root and requires a restore of
// root/ckpt under cfg to be refused naming shape and release, with the
// tree left byte for byte as it was.
func assertRefused(t *testing.T, cfg Config, shape, release string, files map[string]string) {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := treeOf(t, root)
	eng, _, err := Restore(cfg, filepath.Join(root, "ckpt"))
	if err == nil {
		eng.Close()
		t.Fatal("a retired shape restored")
	}
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, store.ErrCorrupt) ||
		!strings.Contains(err.Error(), shape) || !strings.Contains(err.Error(), release) {
		t.Fatalf("err = %v; want a refusal naming the shape (%q) and %s, not os.ErrNotExist or store.ErrCorrupt", err, shape, release)
	}
	if after := treeOf(t, root); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refusal changed the tree: %d paths before, %d after", len(before), len(after))
	}
}

// TestShardedRestoreShardMismatch: a directory with a chain per shard —
// what the releases before the previous one wrote at more than one shard
// — is refused by name, naming the previous release, whose first commit
// rewrites it as one chain. It is refused even where every segment reads:
// the chains are not merged, and the directory is left as it was.
func TestShardedRestoreShardMismatch(t *testing.T) {
	fx := loadFixture()
	e := newEngine(t, fx.in, nil)
	dir := filepath.Join(t.TempDir(), "ckpt")
	feedRows(t, e, fx.early, nil)
	for _, part := range [][]core.ConnRecord{fx.before, fx.after} {
		feedRows(t, e, nil, part)
		e.Drain()
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The base and the delta, named as two chains of one segment each.
	man := assertOnlyCommitted(t, dir)
	man.Chains = [][]ckptSeg{man.Chains[0][:1], man.Chains[0][1:]}
	buf, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"ckpt/" + ckptManifestName: string(buf)}
	for _, sg := range append(man.Chains[0], man.Chains[1]...) {
		seg, err := os.ReadFile(filepath.Join(dir, sg.Name))
		if err != nil {
			t.Fatal(err)
		}
		files["ckpt/"+sg.Name] = string(seg)
	}
	assertRefused(t, Config{Input: fx.in}, "a MANIFEST naming 2 chains", previousRelease, files)
}

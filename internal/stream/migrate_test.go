package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/workload"
)

// The fixtures under testdata/parent are checkpoints written by parent
// commits (see the README there): real bytes of each shape the previous
// release may hand this one — its own, at one shard and at two, and the
// manifest-2 directories it was still continuing in place, written before
// the router owned the one certificate roster, before it owned the one
// §3.2 detector, and before the frames left gob.

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
	for _, chain := range man.Chains {
		for _, sg := range chain {
			want = append(want, sg.Name)
		}
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

// exportNumbering is the part of a full export a restart must keep for
// cursors to survive it.
type exportNumbering struct {
	Epoch, NextSeq uint64
	CertSeqs       map[string]uint64
	ConnSeqs       []uint64
}

// detectorState is a writer's §3.2 state at its last commit, which the
// roster-* writers recorded beside their numbering: Stats' three numbers
// and the exported evidence.
type detectorState struct {
	PendingCerts, ExcludedCerts, InterceptionIssuers int
	Evidence                                         *interception.Evidence
}

func detectorStats(e *Engine) detectorState {
	st := e.Stats()
	return detectorState{PendingCerts: st.PendingCerts, ExcludedCerts: st.ExcludedCerts, InterceptionIssuers: st.InterceptionIssuers}
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

func numbering(t testing.TB, e *Engine) exportNumbering {
	t.Helper()
	st, err := e.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := exportNumbering{Epoch: st.Epoch, NextSeq: st.NextSeq, CertSeqs: map[string]uint64{}}
	for _, c := range st.Certs {
		n.CertSeqs[string(c.Cert.Fingerprint)] = c.Seq
	}
	for _, c := range st.Conns {
		n.ConnSeqs = append(n.ConnSeqs, c.Seq)
	}
	return n
}

// deltaSince requires the writer's cursor from before the upgrade to get,
// from e resumed with the rows fed since, a delta of exactly those rows,
// in the order fed — not a 410. Under e's retention, which sweeps on every
// apply (gobFixtureConfig), that is the connections still inside it.
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
		if c.Cert.Fingerprint != fx.late[i].Fingerprint {
			t.Fatalf("delta certificate %d is %s, want %s as fed", i, c.Cert.Fingerprint, fx.late[i].Fingerprint)
		}
	}
	for i, c := range delta.Conns {
		if c.Conn.UID != conns[i].UID {
			t.Fatalf("delta connection %d is %s, want %s as fed", i, c.Conn.UID, conns[i].UID)
		}
	}
}

// TestMigrateParentCheckpoints restores each gob-framed checkpoint shape
// from the bytes a parent commit wrote into the one window, resumes it to
// the reports of an engine fed the same rows — serving a cursor taken
// before the upgrade exactly the rows fed since, where the writer exported
// — and requires the first write afterwards to rewrite it as one base of
// this release's frames with the writer's segments gone, which restores to
// the same place and is continued by deltas from then on. The routed-*
// three differ from today's directories by a certificate repeated in
// every chain that referenced it, the roster-* three by a detector state
// in every chain, and the *-sharded-* two by a second chain. The roster-*
// writers ran a detector per shard and recorded what the deployment's
// §3.2 state was: the one detector restored from their chains must hold
// exactly that, and keep holding it once the rewrite has put it in the
// one chain's state frame. The v2-* two, from before the router, are
// refused.
func TestMigrateParentCheckpoints(t *testing.T) {
	fx := loadFixture()
	ref := newEngine(t, fx.in, nil)
	feedRows(t, ref, fx.early, fx.before)
	feedRows(t, ref, fx.late, fx.after)
	ref.Drain()
	want := allReports(t, ref)

	for _, c := range []struct {
		name     string
		export   bool   // the writer exported; <name>.export.json is its numbering
		detector string // the export record holding the writer's §3.2 state ("": not recorded)
	}{
		{"routed-plain", false, ""},
		{"routed-export", true, ""},
		{"routed-sharded-export", true, ""},
		// The same rows at one shard hold the same §3.2 state, so the plain
		// writer — which could not export — is held to the exporting one's.
		{"roster-plain", false, "roster-export"},
		{"roster-export", true, "roster-export"},
		{"roster-sharded-export", true, "roster-sharded-export"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			copyDir(t, filepath.Join("testdata", "parent"), tmp)
			path := filepath.Join(tmp, c.name)
			cfg := Config{Input: fx.in, TrackExport: c.export}
			restore := func() (*Engine, map[string]int64) {
				t.Helper()
				eng, cursor, err := Restore(cfg, path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(eng.Close)
				return eng, cursor
			}

			written, err := readCkptManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			eng, cursor := restore()
			if got := cursor["conn_index"]; got != int64(len(fx.before)) {
				t.Fatalf("cursor = %v, want conn_index=%d", cursor, len(fx.before))
			}
			var recorded exportNumbering
			if c.export {
				readJSON(t, filepath.Join(tmp, c.name+".export.json"), &recorded)
				if got := numbering(t, eng); !reflect.DeepEqual(got, recorded) {
					t.Fatalf("restored export numbering (epoch %d, next %d) differs from the writer's (epoch %d, next %d)",
						got.Epoch, got.NextSeq, recorded.Epoch, recorded.NextSeq)
				}
			}
			if c.detector != "" {
				var wrote detectorState
				readJSON(t, filepath.Join(tmp, c.detector+".export.json"), &wrote)
				if wrote.PendingCerts == 0 || len(wrote.Evidence.Observed) == 0 {
					t.Fatal("vacuous: the writer recorded no parked observation or no evidence")
				}
				held := func(e *Engine, when string) {
					t.Helper()
					got := detectorStats(e)
					if c.export {
						st, err := e.Export(0, 0)
						if err != nil {
							t.Fatal(err)
						}
						got.Evidence = st.Evidence
					} else {
						got.Evidence = wrote.Evidence
					}
					if !reflect.DeepEqual(got, wrote) {
						t.Fatalf("%s: %d parked / %d excluded / %d issuers (evidence equal: %v), the writer had %d / %d / %d", when,
							got.PendingCerts, got.ExcludedCerts, got.InterceptionIssuers, reflect.DeepEqual(got.Evidence, wrote.Evidence),
							wrote.PendingCerts, wrote.ExcludedCerts, wrote.InterceptionIssuers)
					}
				}
				held(eng, "restored from the parent's bytes")
				// The same on a copy this release has rewritten before the late
				// certificates arrive: what every chain had parked is now in the
				// one base's state frame — restored once, not once per chain
				// that held it.
				side := filepath.Join(t.TempDir(), "rewritten")
				copyDir(t, path, side)
				early, cursor, err := Restore(cfg, side)
				if err != nil {
					t.Fatal(err)
				}
				if err := early.WriteCheckpoint(side, cursor); err != nil {
					t.Fatal(err)
				}
				early.Close()
				if early, _, err = Restore(cfg, side); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(early.Close)
				held(early, "restored from the rewritten base")
			}
			feedRows(t, eng, fx.late, fx.after)
			eng.Drain()
			diffReports(t, "resumed from the parent's bytes", want, allReports(t, eng))
			if c.export {
				deltaSince(t, eng, recorded.NextSeq, recorded.Epoch, fx)
			}

			end := map[string]int64{"conn_index": int64(len(fx.before) + len(fx.after))}
			if err := eng.WriteCheckpoint(path, end); err != nil {
				t.Fatal(err)
			}
			// The detector is the router's: its state rides the base.
			sg := rewritten(t, path, written)[0]
			if st, err := readSegmentState(filepath.Join(path, sg.Name), sg.Bytes); err != nil || st.Parked == nil {
				t.Fatalf("the base carries no detector state (%v)", err)
			}

			again, cursor := restore()
			if !reflect.DeepEqual(cursor, end) {
				t.Fatalf("cursor after migration = %v, want %v", cursor, end)
			}
			diffReports(t, "restored from the migrated directory", want, allReports(t, again))
			if before, after := detectorStats(eng), detectorStats(again); before != after {
				t.Fatalf("§3.2 state changed across the migration: %+v → %+v", before, after)
			}
			if c.export {
				if before, after := numbering(t, eng), numbering(t, again); !reflect.DeepEqual(before, after) {
					t.Fatalf("export numbering changed across the migration: epoch %d → %d, next %d → %d",
						before.Epoch, after.Epoch, before.NextSeq, after.NextSeq)
				}
			}

			// The migrated directory is this release's own: continued by a
			// delta, which restores to the same place again.
			if err := again.WriteCheckpoint(path, end); err != nil {
				t.Fatal(err)
			}
			if man := assertOnlyCommitted(t, path); len(man.Chains) != 1 || len(man.Chains[0]) != 2 {
				t.Fatalf("chains %v after a second write, want the base and one delta", man.Chains)
			}
			third, _ := restore()
			diffReports(t, "restored from the continued directory", want, allReports(t, third))
		})
	}

	// The v2-* writers predate the router: a version-2 MANIFEST without
	// Router over one chain of two segments, as below. That shape is
	// retired, so their directories — whose bytes are no longer kept — are
	// refused by name and left untouched, under the writer's own Config.
	man := fmt.Sprintf(`{"Version":2,"Gen":2,"NextSeg":3,"Chains":[[{"Name":"seg-1.ckpt","Bytes":%d},{"Name":"seg-2.ckpt","Bytes":%d}]],"Cursor":{"conn_index":%d}}`,
		len(unreadSegment), len(unreadSegment), len(fx.before))
	for _, c := range []struct {
		name   string
		export bool
	}{
		{"v2-plain", false},
		{"v2-export", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			assertRefused(t, Config{Input: fx.in, TrackExport: c.export}, "version-2 MANIFEST without router state", map[string]string{
				"ckpt/MANIFEST":   man,
				"ckpt/seg-1.ckpt": unreadSegment,
				"ckpt/seg-2.ckpt": unreadSegment,
			})
		})
	}
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

// TestRetiredCheckpointsRefused: each checkpoint shape older than the
// previous release's is refused by name — never as "no checkpoint yet",
// which would let a daemon start empty and sweep the files with its first
// commit — naming the build that rewrites it, and the tree is left byte
// for byte as it was: nothing swapped in, no temp file collected. The
// inputs are synthesized, since the refusal is decided from the path and
// the manifest alone.
func TestRetiredCheckpointsRefused(t *testing.T) {
	fx := loadFixture()
	seg := unreadSegment
	chain := fmt.Sprintf(`[[{"Name":"seg-1.ckpt","Bytes":%d}]]`, len(seg))
	for _, c := range []struct {
		name, shape string
		files       map[string]string // under the checkpoint path's parent
	}{
		{"single file", "single-file checkpoint", map[string]string{
			"ckpt":     "\x00arbitrary bytes, not a checkpoint of any release",
			"ckpt.tmp": "half-written checkpoint",
		}},
		{"manifest.json", "manifest.json", map[string]string{
			"ckpt/manifest.json":   `{"Version":1,"Shards":1,"Files":["shard-0.g2.ckpt"]}`,
			"ckpt/shard-0.g2.ckpt": seg,
		}},
		{"version 1", "version-1 MANIFEST", map[string]string{
			"ckpt/MANIFEST":   fmt.Sprintf(`{"Version":1,"Gen":1,"NextSeg":2,"Segments":%s}`, chain[1:len(chain)-1]),
			"ckpt/seg-1.ckpt": seg,
		}},
		{"version 2 without router", "version-2 MANIFEST without router state", map[string]string{
			"ckpt/MANIFEST":   fmt.Sprintf(`{"Version":2,"Gen":1,"NextSeg":2,"Chains":%s}`, chain),
			"ckpt/seg-1.ckpt": seg,
		}},
		{"certificate sequences", "lists certificate sequences", map[string]string{
			"ckpt/MANIFEST": fmt.Sprintf(`{"Version":2,"Gen":1,"NextSeg":2,"Chains":%s,`+
				`"Router":{"NextSeq":1,"CertsRouted":1,"Epoch":7,"CertSeqs":{"00e4":0}}}`, chain),
			"ckpt/seg-1.ckpt": seg,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			assertRefused(t, Config{Input: fx.in}, c.shape, c.files)
		})
	}
}

// unreadSegment stands in for a segment a refusal never opens.
const unreadSegment = "segment bytes a refusal never reads"

// assertRefused writes files under a fresh root and requires a restore of
// root/ckpt under cfg to be refused naming shape and retiredRelease, with
// the tree left byte for byte as it was.
func assertRefused(t *testing.T, cfg Config, shape string, files map[string]string) {
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
	if errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), shape) || !strings.Contains(err.Error(), retiredRelease) {
		t.Fatalf("err = %v; want a refusal naming the shape (%q) and %s, not os.ErrNotExist", err, shape, retiredRelease)
	}
	if after := treeOf(t, root); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refusal changed the tree: %d paths before, %d after", len(before), len(after))
	}
}

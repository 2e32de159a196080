package stream

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/store"
)

// The detector-* fixtures are manifest-2 directories of gob frames (commit
// 01cd2dd, the last to write gob), the binary-* ones manifest-3
// directories of this release's frames (commit 7a5e8ef; the previous
// release, dc2bc03, writes the same bytes; README.md beside them has both
// writers): one shard and two, exporting, under a retention window that
// evicted between commits, a base and two deltas a chain, the detector's
// state in every segment of chain 0 and 26 observations parked in it.
// Each sits beside its writer's Stats and Export(0, 0) at the last commit.

// gobFixtureConfig is the configuration the writer ran under: every apply
// runs an eviction pass, so the retained window is a function of the rows
// applied, not of where a restart fell between passes.
func gobFixtureConfig(fx *fixture) Config {
	return Config{Input: fx.in, TrackExport: true, Retention: 400 * 24 * time.Hour, EvictEvery: 1}
}

// writerRecord is what a detector-* writer recorded at its last commit.
type writerRecord struct {
	Stats  Stats
	Export *ExportState
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
	exp, err := e.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// stateOf returns a committed segment's state frame, of either generation.
func stateOf(t *testing.T, dir string, sg ckptSeg) (st *segState) {
	t.Helper()
	err := eachFrame(filepath.Join(dir, sg.Name), sg.Bytes, func(typ byte, body []byte) (err error) {
		if st, err = decodeState(typ, body); err == nil {
			err = io.EOF
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// rewritten requires the directory at dir, after the first commit over
// written, to be one chain of one base of this release's frames, none of
// written's segments left, and returns the chain.
func rewritten(t *testing.T, dir string, written *ckptManifest) []ckptSeg {
	t.Helper()
	man := assertOnlyCommitted(t, dir)
	if len(man.Chains) != 1 || len(man.Chains[0]) != 1 {
		t.Fatalf("chains %v after the first commit, want one base", man.Chains)
	}
	for _, chain := range written.Chains {
		for _, sg := range chain {
			if sg.Name == man.Chains[0][0].Name {
				t.Fatalf("the base took the name of the writer's %s", sg.Name)
			}
		}
	}
	for _, typ := range frameTypes(t, dir, man.Chains[0][0]) {
		if isGob(typ) {
			t.Fatalf("the base holds a gob frame (type %d)", typ)
		}
	}
	return man.Chains[0]
}

// TestParentGobDirectories restores each parent-written directory into
// the one window, holding exactly what its writer recorded, resumes it to
// the 23 reports of an engine that was never stopped, and then lives with
// it the way an upgraded daemon does. The one-chain directory of this
// release's frames is this release's own shape: the first commit puts a
// delta on the writer's chain. Every other one — two chains, or gob
// frames — the first commit rewrites as one base of this release's frames,
// and the writer's segments are gone; the base restores to the writer's
// record again. Either way a second delta and a fold follow, and the
// folded base restores to the same reports. (The reference is an engine
// under the writer's retention, not the batch pipeline: batch has no
// window.)
func TestParentGobDirectories(t *testing.T) {
	fx := loadFixture()
	cfg := gobFixtureConfig(fx)
	for _, c := range []struct {
		name    string
		chains  int
		version int // the writer's manifest version: 2 holds gob frames alone, 3 none
	}{
		{"detector-export", 1, 2},
		{"detector-sharded-export", 2, 2},
		{"binary-export", 1, 3},
		{"binary-sharded-export", 2, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := newEngine(t, fx.in, func(cf *Config) { *cf = cfg })
			feedRows(t, ref, fx.early, fx.before)
			feedRows(t, ref, fx.late, fx.after)
			ref.Drain()
			want := allReports(t, ref)

			dir := filepath.Join(t.TempDir(), c.name)
			copyDir(t, filepath.Join("testdata", "parent", c.name), dir)
			var wrote writerRecord
			readJSON(t, filepath.Join("testdata", "parent", c.name+".export.json"), &wrote)
			if wrote.Stats.Evicted == 0 || wrote.Stats.PendingCerts == 0 || len(wrote.Export.Evidence.Observed) == 0 {
				t.Fatalf("vacuous: the writer evicted %d, parked %d", wrote.Stats.Evicted, wrote.Stats.PendingCerts)
			}
			written, err := readCkptManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(written.Chains) != c.chains {
				t.Fatalf("the fixture names %d chains, want %d", len(written.Chains), c.chains)
			}
			cutoffs := 0
			for i, chain := range written.Chains {
				if written.Version != c.version || len(chain) != 3 {
					t.Fatalf("chain %d of the version-%d fixture has %d segments, want a base and two deltas under version %d", i, written.Version, len(chain), c.version)
				}
				for _, sg := range chain {
					for _, typ := range frameTypes(t, dir, sg) {
						if isGob(typ) != (c.version == 2) {
							t.Fatalf("fixture segment %s holds frame type %d: not its writer's bytes", sg.Name, typ)
						}
					}
					if !stateOf(t, dir, sg).EvictCutoff.IsZero() {
						cutoffs++
					}
				}
			}
			if cutoffs == 0 {
				t.Fatal("vacuous: no segment of the fixture replays an eviction")
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

			// The upgrade's first commit, over nothing new.
			cursor := map[string]int64{"conn_index": int64(len(fx.before))}
			upgraded := restore()
			if err := upgraded.WriteCheckpoint(dir, cursor); err != nil {
				t.Fatal(err)
			}
			own := c.chains == 1 && c.version == 3
			if own {
				// Continued in place: one state frame on the writer's chain.
				man := assertOnlyCommitted(t, dir)
				chain := man.Chains[0]
				if len(man.Chains) != 1 || len(chain) != 4 || !reflect.DeepEqual(chain[:3], written.Chains[0]) {
					t.Fatalf("chains %v, want the writer's %v and one delta", man.Chains, written.Chains[0])
				}
				if types := frameTypes(t, dir, chain[3]); len(types) != 1 || types[0] != segFrameState {
					t.Fatalf("the delta over nothing new holds frames %v, want one state frame", types)
				}
			} else {
				rewritten(t, dir, written)
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
			man := assertOnlyCommitted(t, dir)
			chain := man.Chains[0]
			types := frameTypes(t, dir, chain[len(chain)-1])
			for _, typ := range []byte{segFrameState, segFrameCerts, segFrameEvidence, segFrameConns} {
				if !slices.Contains(types, typ) {
					t.Fatalf("the delta holds frames %v, want one of type %d among them", types, typ)
				}
			}
			evidence := func(e *Engine) *interception.Evidence {
				t.Helper()
				exp, err := e.Export(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return exp.Evidence
			}
			continued := restore()
			diffReports(t, "restored from the continued chain", want, allReports(t, continued))
			if !reflect.DeepEqual(evidence(continued), evidence(upgraded)) {
				t.Fatal("the continued chain restores to other §3.2 evidence than the engine that wrote it holds")
			}
			before := numbering(t, upgraded)
			if err := upgraded.Compact(); err != nil {
				t.Fatal(err)
			}
			man = assertOnlyCommitted(t, dir)
			if len(man.Chains) != 1 || len(man.Chains[0]) != 1 {
				t.Fatalf("chains %v after the fold, want one base", man.Chains)
			}
			for _, typ := range frameTypes(t, dir, man.Chains[0][0]) {
				if isGob(typ) {
					t.Fatalf("the folded base still holds a gob frame (type %d)", typ)
				}
			}
			folded := restore()
			diffReports(t, "restored from the folded base", want, allReports(t, folded))
			if after := numbering(t, folded); !reflect.DeepEqual(before, after) {
				t.Fatalf("export numbering changed across the fold: epoch %d → %d, next %d → %d", before.Epoch, after.Epoch, before.NextSeq, after.NextSeq)
			}
			if a, b := detectorStats(upgraded), detectorStats(folded); a != b {
				t.Fatalf("§3.2 state changed across the fold: %+v → %+v", a, b)
			}
			if !reflect.DeepEqual(evidence(folded), evidence(upgraded)) {
				t.Fatal("the folded base restores to other §3.2 evidence than the engine that wrote it holds")
			}
		})
	}
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
				_, err = decodeState(f.typ, f.body[:cut])
			} else {
				_, err = decodeRecords(f.typ, f.body[:cut])
			}
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("frame type %d payload cut at %d of %d: err = %v, want store.ErrCorrupt", f.typ, cut, len(f.body), err)
			}
		}
	}
}

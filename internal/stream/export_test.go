package stream

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/race"
	"repro/internal/workload"
)

// replayAnalysis reconstructs a merged analysis from exported state the
// way an aggregator does: each sensor's exports (a full snapshot plus
// zero or more deltas, in sync order) concatenate into one shard state,
// the §3.2 verdict is recomputed from each sensor's latest evidence, and
// core.MergeShards replays everything through one Builder.
func replayAnalysis(in *core.Input, sensors ...[]*ExportState) *core.Analysis {
	im := interception.NewMerge(2)
	var states []core.ShardState
	var rawConns uint64
	seen := map[ids.Fingerprint]bool{}
	rawCerts := 0
	for _, exports := range sensors {
		var certs []*certmodel.CertInfo
		var conns []core.ConnRecord
		var seqs []uint64
		for _, st := range exports {
			for _, c := range st.Certs {
				if !seen[c.Fingerprint] {
					seen[c.Fingerprint] = true
					rawCerts++
				}
			}
			certs = append(certs, st.Certs...)
			conns, seqs = append(conns, st.Conns...), append(seqs, st.ConnSeqs...)
		}
		last := exports[len(exports)-1]
		rawConns += last.ConnsIngested
		im.AbsorbEvidence(last.Evidence)
		states = append(states, core.ShardState{Certs: certs, Conns: conns, Seqs: seqs})
	}
	res := im.Result()
	pre := &core.PreprocessReport{
		InterceptionIssuers: res.Issuers,
		ExcludedCerts:       len(res.ExcludedCerts),
		ExcludedShare:       res.ExcludedShare(rawCerts),
		RawCerts:            rawCerts,
		RawConns:            int(rawConns),
	}
	return core.MergeShards(in, states, res.Excludes).Pipeline(pre).RunAll()
}

func mustExport(t *testing.T, e *Engine, since, epoch uint64) *ExportState {
	t.Helper()
	st, err := e.Export(since, epoch)
	if err != nil {
		t.Fatalf("Export(%d, %d): %v", since, epoch, err)
	}
	return st
}

// certList orders the build's certificate map by fingerprint, so tests
// can split it into deterministic slices.
func certList(b *workload.Build) []*certmodel.CertInfo {
	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	return certs
}

// TestExportSinceIsSuffixOfFull: a delta export is exactly the full
// export filtered to its cursor — on either store, for cursors before,
// inside and past the retained window, including one taken before
// retention evicted the records on both sides of it.
func TestExportSinceIsSuffixOfFull(t *testing.T) {
	b := genBuild(7, 800)
	certs := certList(b)
	// Timestamp order, so the watermark advances and the early records
	// age out of a window a third of the stream long.
	conns := append([]core.ConnRecord(nil), b.Raw.Conns...)
	sort.SliceStable(conns, func(i, j int) bool { return conns[i].TS.Before(conns[j].TS) })
	feedRound := func(g *Engine, cs []*certmodel.CertInfo, recs []core.ConnRecord) {
		t.Helper()
		for _, c := range cs {
			if !g.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
				t.Fatal("cert event rejected")
			}
		}
		for i := range recs {
			if !g.IngestConn(&recs[i]) {
				t.Fatal("conn event rejected")
			}
		}
	}

	for _, tc := range []struct {
		disk bool
	}{{false}, {true}} {
		in := inputFromBuild(b)
		in.Raw = nil
		s := newEngine(t, in, func(c *Config) {
			c.TrackExport = true
			c.Retention = 200 * 24 * time.Hour
			c.EvictEvery = 16
			if tc.disk {
				c.Store, c.StoreDir, c.HotBytes = "disk", t.TempDir(), 64<<10
			}
		})
		third := len(conns) / 3
		feedRound(s, certs[:len(certs)/2], conns[:third])
		s.Drain()
		early := mustExport(t, s, 0, 0)
		feedRound(s, certs[len(certs)/2:], conns[third:])
		s.Drain()
		full := mustExport(t, s, 0, 0)

		if st := s.Stats(); st.Evicted == 0 || len(full.Conns) != st.Retained {
			t.Fatalf("%+v: evicted %d, export carries %d of %d retained", tc, st.Evicted, len(full.Conns), st.Retained)
		}
		if full.ConnSeqs[0] <= early.NextSeq {
			t.Fatalf("%+v: eviction never reached the early cursor", tc)
		}
		if tc.disk {
			if coldConns(s) == 0 {
				t.Fatalf("%+v: hot budget did not force any spill", tc)
			}
		}
		mid := full.ConnSeqs[len(full.Conns)/2]
		for _, since := range []uint64{1, early.NextSeq, mid, mid + 1, full.NextSeq} {
			got := mustExport(t, s, since, full.Epoch)
			want := &ExportState{}
			for i, seq := range full.ConnSeqs {
				if seq >= since {
					want.Conns, want.ConnSeqs = append(want.Conns, full.Conns[i]), append(want.ConnSeqs, seq)
				}
			}
			for i, seq := range full.CertSeqs {
				if seq >= since {
					want.Certs, want.CertSeqs = append(want.Certs, full.Certs[i]), append(want.CertSeqs, seq)
				}
			}
			if !reflect.DeepEqual(got.Conns, want.Conns) || !reflect.DeepEqual(got.ConnSeqs, want.ConnSeqs) ||
				!reflect.DeepEqual(got.Certs, want.Certs) || !reflect.DeepEqual(got.CertSeqs, want.CertSeqs) {
				t.Errorf("%+v: Export(%d) carries %d conns / %d certs, full export filtered to it %d / %d (or contents differ)",
					tc, since, len(got.Conns), len(got.Certs), len(want.Conns), len(want.Certs))
			}
		}
	}
}

// TestExportStaleCursor: epoch mismatches and cursors beyond the
// sequence horizon are refused with ErrStaleCursor; engines without
// TrackExport refuse to export at all.
func TestExportStaleCursor(t *testing.T) {
	b := genBuild(99, 400)
	in := inputFromBuild(b)
	in.Raw = nil

	e := newEngine(t, in, func(c *Config) { c.TrackExport = true })
	feed(t, e, b)
	e.Drain()
	full := mustExport(t, e, 0, 0)

	if _, err := e.Export(full.NextSeq, full.Epoch+1); !errors.Is(err, ErrStaleCursor) {
		t.Errorf("epoch mismatch: err = %v, want ErrStaleCursor", err)
	}
	if _, err := e.Export(full.NextSeq+1, full.Epoch); !errors.Is(err, ErrStaleCursor) {
		t.Errorf("cursor beyond horizon: err = %v, want ErrStaleCursor", err)
	}

	plain := newEngine(t, in, nil)
	if _, err := plain.Export(0, 0); !errors.Is(err, ErrExportDisabled) {
		t.Errorf("export without TrackExport: err = %v, want ErrExportDisabled", err)
	}
}

// TestExportManifestDoesNotFollowRoster: an exporting engine's certificate
// sequences are committed in the segments, beside the certificates, so
// the MANIFEST every commit rewrites stays the same few hundred bytes
// while the roster grows tenfold between two commits — and the sequences
// still come back on restore.
func TestExportManifestDoesNotFollowRoster(t *testing.T) {
	b := genBuild(7, 4000)
	in := inputFromBuild(b)
	in.Raw = nil
	certs := syntheticCerts(1100)
	cfg := Config{Input: in, TrackExport: true}
	s := newEngine(t, in, func(c *Config) { *c = cfg })
	dir := filepath.Join(t.TempDir(), "ckpt")
	var sizes []int
	for _, part := range [][]core.CertRecord{certs[:100], certs[100:]} {
		s.IngestCertBatch(part)
		s.Drain()
		if err := s.WriteCheckpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(buf), "CertSeqs") {
			t.Fatalf("MANIFEST holds certificate sequences:\n%.400s", buf)
		}
		sizes = append(sizes, len(buf))
	}
	// The second manifest names one more segment.
	if grew := sizes[1] - sizes[0]; grew > 128 {
		t.Errorf("MANIFEST grew %d bytes (%d → %d) across 1000 certificates", grew, sizes[0], sizes[1])
	}
	restored, _, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	want, got := mustExport(t, s, 0, 0), mustExport(t, restored, 0, 0)
	if !reflect.DeepEqual(want.Certs, got.Certs) || !reflect.DeepEqual(want.CertSeqs, got.CertSeqs) {
		t.Errorf("the restored engine numbers its %d certificates differently", len(got.Certs))
	}
	if _, err := restored.Export(want.NextSeq, want.Epoch); err != nil {
		t.Errorf("the restored engine does not continue the writer's cursor: %v", err)
	}
}

// TestExportFreshRestartIsStale: restoring from a pre-export checkpoint
// (or simply restarting without one) renumbers under a new epoch, so a
// cursor from the previous process is refused rather than silently
// resuming against different sequence numbers.
func TestExportFreshRestartIsStale(t *testing.T) {
	b := genBuild(7, 400)
	in := inputFromBuild(b)
	in.Raw = nil

	// A checkpoint written without TrackExport...
	cfg := Config{Input: in}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, b)
	e.Drain()
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := e.WriteCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// ...restores into an exporting engine with a fresh epoch and a
	// complete renumbering: a full export must carry everything.
	cfg.TrackExport = true
	e2, _, err := Restore(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	full := mustExport(t, e2, 0, 0)
	if len(full.Conns) != len(b.Raw.Conns) || len(full.Certs) != len(b.Raw.Certs) {
		t.Fatalf("renumbered export carries %d/%d conns, %d/%d certs",
			len(full.Conns), len(b.Raw.Conns), len(full.Certs), len(b.Raw.Certs))
	}
	if _, err := e2.Export(1, full.Epoch+12345); !errors.Is(err, ErrStaleCursor) {
		t.Errorf("cursor from another epoch: err = %v, want ErrStaleCursor", err)
	}
	got := replayAnalysis(in, []*ExportState{full})
	if !reflect.DeepEqual(core.Run(inputFromBuild(b)), got) {
		t.Error("renumbered export replay differs from batch")
	}
}

// syntheticCerts returns n certificates nothing references: roster size
// without evidence or connections.
func syntheticCerts(n int) []core.CertRecord {
	recs := make([]core.CertRecord, n)
	for i := range recs {
		recs[i].Cert = &certmodel.CertInfo{Fingerprint: ids.Fingerprint(fmt.Sprintf("synthetic-%06d", i))}
	}
	return recs
}

// exportingRoster starts an exporting deployment holding n synthetic
// certificates and returns it with its full export.
func exportingRoster(t testing.TB, in *core.Input, n int) (*Engine, *ExportState) {
	t.Helper()
	s, err := New(Config{Input: in, TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if got := s.IngestCertBatch(syntheticCerts(n)); got != n {
		t.Fatalf("admitted %d of %d certificates", got, n)
	}
	s.Drain()
	full, err := s.Export(0, 0)
	if err != nil || len(full.Certs) != n {
		t.Fatalf("full export: %d of %d certificates, err %v", len(full.Certs), n, err)
	}
	return s, full
}

// TestExportDeltaAllocsFlat pins a delta export's cost against what it
// does not carry. The certificate side: a delta is the admission log's
// suffix, and an empty one (since = NextSeq) allocates the same over a 1k
// and a 50k roster — nothing copies, collects or sorts the roster on the
// way. (The walk itself being O(delta) is a time, not an allocation:
// BenchmarkExportEmptyDelta.) The connection side: on the memory store a
// delta of 1 000 connections and one of 10 000 allocate the same bytes —
// the window's suffix travels as it is, not copied per record.
func TestExportDeltaAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	b := genBuild(7, 4000)
	in := inputFromBuild(b)
	in.Raw = nil
	var allocs [2]float64
	for i, roster := range []int{1000, 50000} {
		s, full := exportingRoster(t, in, roster)
		mid := full.CertSeqs[roster/2]
		if got := mustExport(t, s, mid, full.Epoch); !reflect.DeepEqual(got.Certs, full.Certs[roster/2:]) {
			t.Fatalf("Export(%d) is not the roster's suffix", mid)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if st := mustExport(t, s, full.NextSeq, full.Epoch); len(st.Certs) != 0 {
				t.Fatalf("empty delta carries %d certificates", len(st.Certs))
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("an empty delta allocates %.0f over 1k certificates, %.0f over 50k", allocs[0], allocs[1])
	}

	s, _ := exportingRoster(t, in, 0)
	if got := s.IngestConnBatch(syntheticConns(10000)); got != 10000 {
		t.Fatalf("accepted %d of 10000 connections", got)
	}
	s.Drain()
	full := mustExport(t, s, 0, 0)
	var bytes [2]uint64
	for i, n := range []int{1000, 10000} {
		since := full.ConnSeqs[len(full.ConnSeqs)-n]
		bytes[i] = math.MaxUint64
		for range 5 { // the least of five: a stray allocation elsewhere only adds
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := mustExport(t, s, since, full.Epoch)
			runtime.ReadMemStats(&after)
			if len(st.Conns) != n {
				t.Fatalf("Export(%d) carries %d connections, want %d", since, len(st.Conns), n)
			}
			bytes[i] = min(bytes[i], after.TotalAlloc-before.TotalAlloc)
		}
	}
	if bytes[0] != bytes[1] {
		t.Errorf("a delta of 1000 connections allocates %d bytes, one of 10000 %d", bytes[0], bytes[1])
	}
}

// syntheticConns returns n connections naming no certificate, a second
// apart.
func syntheticConns(n int) []core.ConnRecord {
	recs := make([]core.ConnRecord, n)
	for i := range recs {
		recs[i] = core.ConnRecord{TS: certmodel.StudyEpoch.Add(time.Duration(i) * time.Second),
			UID: ids.UID(fmt.Sprintf("Csynthetic%06d", i)), Weight: 1}
	}
	return recs
}

// TestExportAppendDoesNotAlias: an export's columns are the engine's own
// memory, clipped to the captured length. A caller appending to all four
// of them after the engine appended past that length must get arrays of
// its own: the engine's next export and its 23 reports are those of an
// engine fed the same rows, and the export it handed out keeps what it
// held.
func TestExportAppendDoesNotAlias(t *testing.T) {
	b := genBuild(7, 800)
	in := inputFromBuild(b)
	in.Raw = nil
	certs, conns := certList(b), b.Raw.Conns
	s := newEngine(t, in, func(c *Config) { c.TrackExport = true })
	ingest := func(cs []*certmodel.CertInfo, recs []core.ConnRecord) {
		t.Helper()
		for _, c := range cs {
			if !s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
				t.Fatal("cert event rejected")
			}
		}
		if got := s.IngestConnBatch(recs); got != len(recs) {
			t.Fatalf("accepted %d of %d connections", got, len(recs))
		}
		s.Drain()
	}
	h, k := len(certs)/2, len(conns)/3
	ingest(certs[:h], conns[:k])
	st := mustExport(t, s, 0, 0)
	held := *st
	held.Certs, held.CertSeqs = slices.Clone(st.Certs), slices.Clone(st.CertSeqs)
	held.Conns, held.ConnSeqs = slices.Clone(st.Conns), slices.Clone(st.ConnSeqs)
	ingest(certs[h:h+1], conns[k:k+1]) // the engine appends past the export
	junk := syntheticConns(1)[0]
	st.Certs = append(st.Certs, &certmodel.CertInfo{Fingerprint: "junk"})
	st.CertSeqs = append(st.CertSeqs, math.MaxUint64)
	st.Conns = append(st.Conns, junk)
	st.ConnSeqs = append(st.ConnSeqs, math.MaxUint64)
	ingest(certs[h+1:], conns[k+1:])

	full := mustExport(t, s, 0, 0)
	if !reflect.DeepEqual(full.Certs, certs) || !reflect.DeepEqual(full.Conns, conns) {
		t.Fatalf("the next export carries %d certificates and %d connections that are not the %d and %d fed",
			len(full.Certs), len(full.Conns), len(certs), len(conns))
	}
	if !slices.IsSorted(full.CertSeqs) || !slices.IsSorted(full.ConnSeqs) || slices.Contains(full.ConnSeqs, math.MaxUint64) ||
		slices.Contains(full.CertSeqs, math.MaxUint64) {
		t.Fatal("the next export's sequence columns hold what a caller appended")
	}
	n := len(held.Certs)
	if !reflect.DeepEqual(st.Certs[:n], held.Certs) || !reflect.DeepEqual(st.Conns[:len(held.Conns)], held.Conns) ||
		!reflect.DeepEqual(st.CertSeqs[:n], held.CertSeqs) || !reflect.DeepEqual(st.ConnSeqs[:len(held.ConnSeqs)], held.ConnSeqs) {
		t.Fatal("the export handed out changed under its holder")
	}
	if !reflect.DeepEqual(s.Analysis(), core.Run(inputFromBuild(b))) {
		t.Fatal("the 23 reports differ from batch after a caller appended to an export")
	}
}

// BenchmarkExportEmptyDelta is the 100 ms sync of an idle sensor: ns/op
// must not follow the roster size.
func BenchmarkExportEmptyDelta(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	for _, roster := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("roster=%d", roster), func(b *testing.B) {
			s, full := exportingRoster(b, in, roster)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Export(full.NextSeq, full.Epoch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// shardCounts is the acceptance matrix: an engine must be
// indistinguishable from the batch pipeline at every one of these.
var shardCounts = []int{1, 2, 4, 8}

func newSharded(t *testing.T, n int, in *core.Input, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Input: in}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSharded(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShardedMatchesSingleAndBatch is the tentpole contract: at every
// shard count, one included, draining the same event stream yields an
// Analysis deeply equal to the batch pipeline's.
func TestShardedMatchesSingleAndBatch(t *testing.T) {
	b := genBuild(20240504, 1200)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	for _, n := range shardCounts {
		s := newSharded(t, n, in, nil)
		feed(t, s, b)
		s.Drain()
		if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
			t.Errorf("shards=%d: analysis differs from batch", n)
		}
		st := s.Stats()
		if st.ConnsIngested != uint64(len(b.Raw.Conns)) {
			t.Errorf("shards=%d: ConnsIngested = %d, want %d", n, st.ConnsIngested, len(b.Raw.Conns))
		}
		if st.UniqueCerts != len(b.Raw.Certs) {
			t.Errorf("shards=%d: UniqueCerts = %d, want %d", n, st.UniqueCerts, len(b.Raw.Certs))
		}
		if st.Dropped != 0 {
			t.Errorf("shards=%d: unexpected drops: %d", n, st.Dropped)
		}
	}
}

// TestShardedOutOfOrderCerts feeds every connection before any
// certificate: the detector parks every observation, each late
// certificate drains the ones waiting on it, and the drained merge must
// still equal batch — the retroactive-evidence path at every shard count.
func TestShardedOutOfOrderCerts(t *testing.T) {
	b := genBuild(20240504, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	for _, n := range shardCounts {
		s := newSharded(t, n, in, nil)
		for i := range b.Raw.Conns {
			s.IngestConn(&b.Raw.Conns[i])
		}
		for _, c := range b.Raw.Certs {
			s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		}
		s.Drain()
		if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
			t.Errorf("shards=%d: out-of-order merged analysis differs from batch", n)
		}
	}
}

// TestShardedInterleaved alternates chunks of connections and
// certificates, so some leaf certificates arrive before their
// connections (resolved at routing time) and some after (parked, then
// drained by the certificate) — both detector paths in one stream.
func TestShardedInterleaved(t *testing.T) {
	b := genBuild(7, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })

	for _, n := range shardCounts {
		s := newSharded(t, n, in, nil)
		ci, coi := 0, 0
		for ci < len(certs) || coi < len(b.Raw.Conns) {
			for k := 0; k < 16 && coi < len(b.Raw.Conns); k++ {
				s.IngestConn(&b.Raw.Conns[coi])
				coi++
			}
			for k := 0; k < 8 && ci < len(certs); k++ {
				s.IngestCert(&core.CertRecord{TS: certs[ci].NotBefore, Cert: certs[ci]})
				ci++
			}
		}
		s.Drain()
		if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
			t.Errorf("shards=%d: interleaved merged analysis differs from batch", n)
		}
	}
}

// TestShardedRetroactiveExclusion guards the cross-shard §3.2 property:
// the workload's interception issuers must be confirmed by the MERGED
// verdict even when their contradicting domains land on different shards
// — no single shard needs to see enough evidence on its own.
func TestShardedRetroactiveExclusion(t *testing.T) {
	b := genBuild(20240504, 1200)
	batch := core.Run(inputFromBuild(b))
	if batch.Preprocess.ExcludedCerts == 0 || len(batch.Preprocess.InterceptionIssuers) == 0 {
		t.Fatal("workload exercises no §3.2 exclusions; the test is vacuous")
	}
	in := inputFromBuild(b)
	in.Raw = nil

	for _, n := range shardCounts {
		s := newSharded(t, n, in, nil)
		feed(t, s, b)
		s.Drain()
		got := s.Analysis()
		if !reflect.DeepEqual(batch.Preprocess, got.Preprocess) {
			t.Errorf("shards=%d: merged preprocess verdict differs from batch:\n got %+v\nwant %+v",
				n, got.Preprocess, batch.Preprocess)
		}
		st := s.Stats()
		if st.InterceptionIssuers != len(batch.Preprocess.InterceptionIssuers) {
			t.Errorf("shards=%d: Stats.InterceptionIssuers = %d, want %d",
				n, st.InterceptionIssuers, len(batch.Preprocess.InterceptionIssuers))
		}
		if st.ExcludedCerts != batch.Preprocess.ExcludedCerts {
			t.Errorf("shards=%d: Stats.ExcludedCerts = %d, want %d",
				n, st.ExcludedCerts, batch.Preprocess.ExcludedCerts)
		}
	}
}

// TestShardedMidStream takes a merged snapshot mid-stream (a prefix of
// the global stream), then finishes the stream and requires convergence
// to batch — materialization must not disturb ingest state.
func TestShardedMidStream(t *testing.T) {
	b := genBuild(20240504, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	s := newSharded(t, 4, in, nil)
	for _, c := range b.Raw.Certs {
		s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	half := len(b.Raw.Conns) / 2
	for i := 0; i < half; i++ {
		s.IngestConn(&b.Raw.Conns[i])
	}
	s.Drain()
	mid := s.Analysis()
	if mid.Preprocess.RawConns != half {
		t.Fatalf("mid-stream RawConns = %d, want %d", mid.Preprocess.RawConns, half)
	}
	if mid.CertStats.Row("Total").Total == 0 {
		t.Fatal("mid-stream merged analysis is empty")
	}
	if st := s.Stats(); st.Dirty {
		t.Fatal("Stats.Dirty after materializing with no new events")
	}

	for i := half; i < len(b.Raw.Conns); i++ {
		s.IngestConn(&b.Raw.Conns[i])
	}
	s.Drain()
	if st := s.Stats(); !st.Dirty {
		t.Fatal("Stats.Dirty must be set after new events")
	}
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("post-snapshot merged analysis differs from batch")
	}
}

// TestShardedCheckpointRestoreResume kills a sharded deployment
// mid-stream, restores every shard from the manifest, replays the
// remainder, and requires byte-identical rendered reports — the
// acceptance criterion for the per-shard checkpoint manifest.
func TestShardedCheckpointRestoreResume(t *testing.T) {
	b := genBuild(20240504, 1000)
	in := inputFromBuild(b)
	in.Raw = nil

	for _, n := range []int{1, 4} {
		full := newSharded(t, n, in, nil)
		feed(t, full, b)
		full.Drain()
		want := full.Analysis()

		s := newSharded(t, n, in, nil)
		for _, c := range b.Raw.Certs {
			s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		}
		cut := len(b.Raw.Conns) * 2 / 5
		for i := 0; i < cut; i++ {
			s.IngestConn(&b.Raw.Conns[i])
		}
		s.Drain()
		dir := filepath.Join(t.TempDir(), "ckpt")
		cursor := map[string]int64{"conn_index": int64(cut)}
		if err := s.WriteCheckpoint(dir, cursor); err != nil {
			t.Fatal(err)
		}
		s.Close() // the "kill"

		restored, gotCursor, err := RestoreSharded(Config{Input: in}, n, dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(restored.Close)
		if gotCursor["conn_index"] != int64(cut) {
			t.Fatalf("shards=%d: cursor = %v, want conn_index=%d", n, gotCursor, cut)
		}
		for i := cut; i < len(b.Raw.Conns); i++ {
			restored.IngestConn(&b.Raw.Conns[i])
		}
		restored.Drain()
		got := restored.Analysis()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: restored analysis differs from uninterrupted run", n)
		}
		if report.RenderAll(want) != report.RenderAll(got) {
			t.Fatalf("shards=%d: rendered reports are not byte-identical after restore", n)
		}
	}
}

// TestShardedCheckpointGenerations checks the manifest commit protocol:
// a second checkpoint supersedes the first atomically — one more
// generation, one more segment per chain, the second cursor — and the
// directory holds exactly what the manifest names.
func TestShardedCheckpointGenerations(t *testing.T) {
	b := genBuild(7, 500)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newSharded(t, 2, in, nil)
	feed(t, s, b)
	s.Drain()
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.WriteCheckpoint(dir, map[string]int64{"g": 1}); err != nil {
		t.Fatal(err)
	}
	first := assertOnlyCommitted(t, dir)
	if err := s.WriteCheckpoint(dir, map[string]int64{"g": 2}); err != nil {
		t.Fatal(err)
	}
	second := assertOnlyCommitted(t, dir)
	if second.Gen != first.Gen+1 || second.Router == nil {
		t.Fatalf("second manifest: generation %d after %d, router %v", second.Gen, first.Gen, second.Router)
	}
	for i, chain := range second.Chains {
		if len(chain) != 2 || chain[0] != first.Chains[i][0] {
			t.Fatalf("chain %d = %v, want the first commit's base %v and one delta", i, chain, first.Chains[i])
		}
	}
	if _, cursor, err := RestoreSharded(Config{Input: in}, 0, dir); err != nil {
		t.Fatal(err)
	} else if cursor["g"] != 2 {
		t.Fatalf("restored cursor %v, want the second generation's", cursor)
	}
}

// TestShardedCrashMidCheckpoint: a kill -9 landing between the shard
// writes and the manifest rename leaves the directory with the previous
// commit's manifest plus the doomed commit's debris — a fully written
// next segment for shard 0, a torn one for shard 1, the manifest's temp
// file. Restore must come up on the committed generation, resume
// cleanly, and the next checkpoint must collect every orphan.
func TestShardedCrashMidCheckpoint(t *testing.T) {
	b := genBuild(20240504, 600)
	in := inputFromBuild(b)
	in.Raw = nil

	full := newSharded(t, 2, in, nil)
	feed(t, full, b)
	full.Drain()
	want := full.Analysis()

	s := newSharded(t, 2, in, nil)
	for _, c := range b.Raw.Certs {
		s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	cut := len(b.Raw.Conns) * 2 / 5
	for i := 0; i < cut; i++ {
		s.IngestConn(&b.Raw.Conns[i])
	}
	s.Drain()
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.WriteCheckpoint(dir, map[string]int64{"conn_index": int64(cut)}); err != nil {
		t.Fatal(err)
	}
	man := assertOnlyCommitted(t, dir)

	// The doomed second commit, under the names it would have used.
	base, err := os.ReadFile(filepath.Join(dir, man.Chains[0][0].Name))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		fmt.Sprintf("seg-%d.ckpt", man.NextSeg):   base,
		fmt.Sprintf("seg-%d.ckpt", man.NextSeg+1): base[:len(base)/3],
		ckptManifestName + ".tmp":                 []byte("{\"Version\":2"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // the kill

	restored, cursor, err := RestoreSharded(Config{Input: in}, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if cursor["conn_index"] != int64(cut) {
		t.Fatalf("restored cursor %v, want the committed generation's conn_index=%d", cursor, cut)
	}
	if got := restored.Stats().ConnsIngested; got != uint64(cut) {
		t.Fatalf("restored ConnsIngested = %d, want %d (must not see the doomed generation)", got, cut)
	}

	for i := cut; i < len(b.Raw.Conns); i++ {
		restored.IngestConn(&b.Raw.Conns[i])
	}
	restored.Drain()
	if got := restored.Analysis(); !reflect.DeepEqual(want, got) {
		t.Fatal("resumed analysis differs from uninterrupted run")
	}

	// The next commit reuses the doomed names and sweeps the rest.
	if err := restored.WriteCheckpoint(dir, map[string]int64{"conn_index": int64(len(b.Raw.Conns))}); err != nil {
		t.Fatal(err)
	}
	assertOnlyCommitted(t, dir)

	// And the swept directory restores to the full-run state.
	again, cursor2, err := RestoreSharded(Config{Input: in}, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	if cursor2["conn_index"] != int64(len(b.Raw.Conns)) {
		t.Fatalf("final cursor %v, want conn_index=%d", cursor2, len(b.Raw.Conns))
	}
	if !reflect.DeepEqual(want, again.Analysis()) {
		t.Fatal("restore of the post-crash checkpoint differs from uninterrupted run")
	}
}

// TestShardedRestoreShardMismatch: restoring at a different shard count
// must fail loudly, naming both counts (resharding a checkpoint is
// unsupported) — up, down, and through Restore, which asks for one shard —
// and never as "no checkpoint here". n=0 adopts the manifest's count.
func TestShardedRestoreShardMismatch(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newSharded(t, 2, in, nil)
	feed(t, s, b)
	s.Drain()
	sharded := filepath.Join(t.TempDir(), "ckpt")
	if err := s.WriteCheckpoint(sharded, nil); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()
	plain := filepath.Join(t.TempDir(), "ckpt")
	if err := e.WriteCheckpoint(plain, nil); err != nil {
		t.Fatal(err)
	}

	refused := func(what string, err error, have, want int) {
		t.Helper()
		msg := fmt.Sprintf("checkpoint has %d shards, requested %d", have, want)
		if err == nil || !strings.Contains(err.Error(), msg) || errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: err = %v, want a refusal saying %q", what, err, msg)
		}
	}
	_, _, err := RestoreSharded(Config{Input: in}, 3, sharded)
	refused("2 shards restored at 3", err, 2, 3)
	_, _, err = Restore(Config{Input: in}, sharded)
	refused("2 shards restored through Restore", err, 2, 1)
	_, _, err = RestoreSharded(Config{Input: in}, 2, plain)
	refused("1 shard restored at 2", err, 1, 2)

	adopted, _, err := RestoreSharded(Config{Input: in}, 0, sharded)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adopted.Close)
	if adopted.Shards() != 2 {
		t.Fatalf("Shards() = %d, want the manifest's 2", adopted.Shards())
	}
}

// TestShardedReportRegistry: two shards serve the same report registry
// with the same error taxonomy as one.
func TestShardedReportRegistry(t *testing.T) {
	b := genBuild(20240504, 800)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newSharded(t, 2, in, nil)
	feed(t, s, b)
	s.Drain()
	for _, name := range ReportNames() {
		out, err := s.Report(name)
		if err != nil {
			t.Fatalf("Report(%q): %v", name, err)
		}
		if out == nil || reflect.ValueOf(out).IsNil() {
			t.Fatalf("Report(%q) returned nil", name)
		}
	}
	if _, err := s.Report("nope"); err == nil {
		t.Fatal("unknown report name must error")
	}
}

// TestShardedRejectsInvalid: the router enforces the ingest boundary and
// counts refusals, whichever shard the event would have gone to.
func TestShardedRejectsInvalid(t *testing.T) {
	b := genBuild(20240504, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newSharded(t, 4, in, nil)

	bad := b.Raw.Conns[0]
	bad.Weight = 0
	if s.IngestConn(nil) || s.IngestConn(&bad) {
		t.Fatal("invalid conn events must be rejected")
	}
	if s.IngestCert(nil) || s.IngestCert(&core.CertRecord{}) {
		t.Fatal("invalid cert events must be rejected")
	}
	if !s.IngestConn(&b.Raw.Conns[0]) {
		t.Fatal("valid events must still be accepted")
	}
	s.Drain()
	st := s.Stats()
	if st.Rejected != 4 {
		t.Fatalf("Rejected = %d, want 4", st.Rejected)
	}
	if st.ConnsIngested != 1 {
		t.Fatalf("ConnsIngested = %d, want 1", st.ConnsIngested)
	}
}

// TestShardedConcurrentIngestAndMaterialize hammers materialization and
// stats while ingestion is in flight — the merge snapshots shard state
// under each shard's lock but merges lock-free against live slice
// headers, and this is the test that puts the race detector on that
// path. Reads land between batches with shards at different points of
// their queues; none may meet a connection sorting below one it already
// merged, most must be catch-ups, and the final drained analysis must
// still equal batch.
func TestShardedConcurrentIngestAndMaterialize(t *testing.T) {
	b := genBuild(99, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newSharded(t, 4, in, func(c *Config) { c.Metrics = reg })

	done := make(chan struct{})
	go func() {
		defer close(done)
		feed(t, s, b)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			s.Stats()
			if i%3 == 0 {
				if a := s.Analysis(); a == nil {
					t.Error("nil mid-stream analysis")
				}
			}
			continue
		}
		break
	}
	s.Drain()
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("merged analysis differs from batch after concurrent materialization")
	}
	replays := mergeReplays(reg)
	if replays[core.ReplayOrder] != 0 || replays[core.ReplayLost] != 0 {
		t.Errorf("replays %v: a frontier-capped, never-evicting deployment has no order or lost replay", replays)
	}
	st := s.Stats()
	if merges := reg.Counter("stream_merges_total", "").Value(); merges <= st.Rebuilds {
		t.Errorf("%d merges, %d of them replays (%v): no read was a catch-up", merges, st.Rebuilds, replays)
	}
}

// TestShardedMetricsLabels: per-shard series carry shard="i" labels and
// the router registers its own deployment-level series.
func TestShardedMetricsLabels(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newSharded(t, 2, in, func(c *Config) { c.Metrics = reg })
	feed(t, s, b)
	s.Drain()
	s.Analysis()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`stream_conns_ingested_total{shard="0"}`,
		`stream_conns_ingested_total{shard="1"}`,
		`stream_buffer_occupancy{shard="1"}`,
		`stream_shards 2`,
		`stream_merges_total 1`,
		`stream_merge_replays_total{reason="first"} 1`,
		`stream_merge_replays_total{reason="order"} 0`,
		`stream_certs_ingested_total `,
		`stream_store_hot_certs `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition is missing %q", want)
		}
	}
}

package stream

import (
	"encoding/json"
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

// TestShardedMatchesSingleAndBatch is the contract a deployment that used
// to ask for shards now gets from the one window: draining the event
// stream yields an Analysis deeply equal to the batch pipeline's, with the
// ingest counters exact.
func TestShardedMatchesSingleAndBatch(t *testing.T) {
	b := genBuild(20240504, 1200)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	s := newEngine(t, in, nil)
	feed(t, s, b)
	s.Drain()
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("analysis differs from batch")
	}
	st := s.Stats()
	if st.ConnsIngested != uint64(len(b.Raw.Conns)) {
		t.Errorf("ConnsIngested = %d, want %d", st.ConnsIngested, len(b.Raw.Conns))
	}
	if st.UniqueCerts != len(b.Raw.Certs) {
		t.Errorf("UniqueCerts = %d, want %d", st.UniqueCerts, len(b.Raw.Certs))
	}
	if st.Dropped != 0 {
		t.Errorf("unexpected drops: %d", st.Dropped)
	}
}

// TestShardedOutOfOrderCerts feeds every connection before any
// certificate: the detector parks every observation, each late
// certificate drains the ones waiting on it, and the drained merge must
// still equal batch — the retroactive-evidence path.
func TestShardedOutOfOrderCerts(t *testing.T) {
	b := genBuild(20240504, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil

	s := newEngine(t, in, nil)
	for i := range b.Raw.Conns {
		s.IngestConn(&b.Raw.Conns[i])
	}
	for _, c := range b.Raw.Certs {
		s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	s.Drain()
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("out-of-order merged analysis differs from batch")
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

	s := newEngine(t, in, nil)
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
		t.Error("interleaved merged analysis differs from batch")
	}
}

// TestShardedRetroactiveExclusion guards the §3.2 property over the whole
// stream: the workload's interception issuers must be confirmed by the
// one detector's verdict, in the reports and in Stats, exactly as batch
// confirms them.
func TestShardedRetroactiveExclusion(t *testing.T) {
	b := genBuild(20240504, 1200)
	batch := core.Run(inputFromBuild(b))
	if batch.Preprocess.ExcludedCerts == 0 || len(batch.Preprocess.InterceptionIssuers) == 0 {
		t.Fatal("workload exercises no §3.2 exclusions; the test is vacuous")
	}
	in := inputFromBuild(b)
	in.Raw = nil

	s := newEngine(t, in, nil)
	feed(t, s, b)
	s.Drain()
	got := s.Analysis()
	if !reflect.DeepEqual(batch.Preprocess, got.Preprocess) {
		t.Errorf("merged preprocess verdict differs from batch:\n got %+v\nwant %+v", got.Preprocess, batch.Preprocess)
	}
	st := s.Stats()
	if st.InterceptionIssuers != len(batch.Preprocess.InterceptionIssuers) {
		t.Errorf("Stats.InterceptionIssuers = %d, want %d", st.InterceptionIssuers, len(batch.Preprocess.InterceptionIssuers))
	}
	if st.ExcludedCerts != batch.Preprocess.ExcludedCerts {
		t.Errorf("Stats.ExcludedCerts = %d, want %d", st.ExcludedCerts, batch.Preprocess.ExcludedCerts)
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

	s := newEngine(t, in, nil)
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

// TestShardedCheckpointRestoreResume kills a deployment fed in batches
// mid-stream, restores it from the manifest, replays the remainder in
// batches, and requires byte-identical rendered reports.
func TestShardedCheckpointRestoreResume(t *testing.T) {
	b := genBuild(20240504, 1000)
	in := inputFromBuild(b)
	in.Raw = nil

	full := newEngine(t, in, nil)
	feed(t, full, b)
	full.Drain()
	want := full.Analysis()

	s := newEngine(t, in, nil)
	cut := len(b.Raw.Conns) * 2 / 5
	feedBatches(t, s, certRecords(b), b.Raw.Conns[:cut], 256)
	s.Drain()
	dir := filepath.Join(t.TempDir(), "ckpt")
	cursor := map[string]int64{"conn_index": int64(cut)}
	if err := s.WriteCheckpoint(dir, cursor); err != nil {
		t.Fatal(err)
	}
	s.Close() // the "kill"

	restored, gotCursor, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if gotCursor["conn_index"] != int64(cut) {
		t.Fatalf("cursor = %v, want conn_index=%d", gotCursor, cut)
	}
	feedBatches(t, restored, nil, b.Raw.Conns[cut:], 256)
	restored.Drain()
	got := restored.Analysis()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored analysis differs from uninterrupted run")
	}
	if report.RenderAll(want) != report.RenderAll(got) {
		t.Fatal("rendered reports are not byte-identical after restore")
	}
}

// TestShardedCheckpointGenerations checks the manifest commit protocol:
// a second checkpoint supersedes the first atomically — one more
// generation, one more segment on the one chain, the second cursor — and
// the directory holds exactly what the manifest names.
func TestShardedCheckpointGenerations(t *testing.T) {
	b := genBuild(7, 500)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)
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
	if len(second.Chains) != 1 || len(second.Chains[0]) != 2 || second.Chains[0][0] != first.Chains[0][0] {
		t.Fatalf("chains %v, want the first commit's base %v and one delta", second.Chains, first.Chains[0])
	}
	if _, cursor, err := Restore(Config{Input: in}, dir); err != nil {
		t.Fatal(err)
	} else if cursor["g"] != 2 {
		t.Fatalf("restored cursor %v, want the second generation's", cursor)
	}
}

// TestShardedCrashMidCheckpoint: a kill -9 landing between the segment
// write and the manifest rename leaves the directory with the previous
// commit's manifest plus the doomed commits' debris — a fully written
// next segment, a torn one past it, the manifest's temp file. Restore must
// come up on the committed generation, resume cleanly, and the next
// checkpoint must collect every orphan.
func TestShardedCrashMidCheckpoint(t *testing.T) {
	b := genBuild(20240504, 600)
	in := inputFromBuild(b)
	in.Raw = nil

	full := newEngine(t, in, nil)
	feed(t, full, b)
	full.Drain()
	want := full.Analysis()

	s := newEngine(t, in, nil)
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

	restored, cursor, err := Restore(Config{Input: in}, dir)
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
	again, cursor2, err := Restore(Config{Input: in}, dir)
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

// TestShardedReportRegistry: an engine fed in batches serves the whole
// report registry with its error taxonomy.
func TestShardedReportRegistry(t *testing.T) {
	b := genBuild(20240504, 800)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)
	feedBatches(t, s, certRecords(b), b.Raw.Conns, 512)
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
// counts refusals before anything reaches the window.
func TestShardedRejectsInvalid(t *testing.T) {
	b := genBuild(20240504, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)

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
// stats while ingestion is in flight — the merge snapshots the window
// under its lock but merges lock-free against live slice headers, and
// this is the test that puts the race detector on that path. Reads land
// between batches with the apply loop at any point of its queue; none may
// meet a connection sorting below one it already merged, most must be
// catch-ups, and the final drained analysis must still equal batch.
func TestShardedConcurrentIngestAndMaterialize(t *testing.T) {
	b := genBuild(99, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })

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
		t.Errorf("replays %v: a window appended in sequence order that never evicts has no order or lost replay", replays)
	}
	st := s.Stats()
	if merges := reg.Counter("stream_merges_total", "").Value(); merges <= st.Rebuilds {
		t.Errorf("%d merges, %d of them replays (%v): no read was a catch-up", merges, st.Rebuilds, replays)
	}
}

// TestShardedMetricsLabels: the engine's series carry no shard label —
// one window, one series each — and there is no stream_shards gauge.
func TestShardedMetricsLabels(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })
	feed(t, s, b)
	s.Drain()
	s.Analysis()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`stream_conns_ingested_total `,
		`stream_buffer_occupancy `,
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
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `shard="`) || strings.HasPrefix(line, "stream_shards") {
			t.Errorf("exposition still has a per-shard series: %s", line)
		}
	}
}

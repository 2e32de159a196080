package stream

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestWriteCheckpointConcurrentWithEviction is the regression for the
// checkpoint race: the retained-connection slice used to be captured
// under the engine lock but gob-encoded after Unlock, while eviction
// sweeps and appends kept mutating it — a recipe for torn checkpoints.
// Run an eviction-heavy ingestion (EvictEvery 1, tiny window) while
// checkpointing in a tight loop; meaningful under -race, and every
// written checkpoint must restore to a consistent engine.
func TestWriteCheckpointConcurrentWithEviction(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	in.Workers = 1
	e := newEngine(t, in, func(c *Config) {
		c.Retention = time.Hour // far shorter than the 23-month span
		c.EvictEvery = 1
	})

	dir := t.TempDir()
	path := filepath.Join(dir, "race.ckpt")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range b.Raw.Certs {
			e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		}
		for i := range b.Raw.Conns {
			e.IngestConn(&b.Raw.Conns[i])
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		// Each checkpointer writes its own file: the engine supports
		// concurrent WriteCheckpoint calls, but two writers on one path
		// would race on the shared temp file, which is the caller's
		// concern, not the engine's.
		mine := filepath.Join(dir, "race"+string(rune('a'+w))+".ckpt")
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := e.WriteCheckpoint(mine, map[string]int64{"ssl.log": 1}); err != nil {
					t.Error(err)
					return
				}
				// Interleave materializations so rebuilds (which walk the
				// retained slice) contend with the encoder too.
				if _, err := e.Report("table1"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	e.Drain()
	if err := e.WriteCheckpoint(path, map[string]int64{"ssl.log": 1}); err != nil {
		t.Fatal(err)
	}
	restored, cursor, err := Restore(Config{Input: in}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if cursor["ssl.log"] != 1 {
		t.Errorf("cursor = %v", cursor)
	}
	st, rst := e.Stats(), restored.Stats()
	if st.ConnsIngested != rst.ConnsIngested || st.UniqueCerts != rst.UniqueCerts {
		t.Errorf("restored stats diverge: %+v vs %+v", st, rst)
	}
}

// TestReportUnknownIsTypedError: unknown names wrap ErrUnknownReport so
// the daemon can 404 them, distinct from internal failures.
func TestReportUnknownIsTypedError(t *testing.T) {
	b := genBuild(7, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	_, err := e.Report("nope")
	if !errors.Is(err, ErrUnknownReport) {
		t.Fatalf("err = %v, want ErrUnknownReport", err)
	}
	if _, err := e.Report("table1"); err != nil {
		t.Fatalf("known report errored: %v", err)
	}
}

// TestReportPanicRecovered: a panicking report fn becomes an error, not
// a daemon crash, and the engine lock is released for later calls.
func TestReportPanicRecovered(t *testing.T) {
	b := genBuild(7, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)

	reportFns["__boom"] = func(*core.Pipeline) any { panic("kaboom") }
	defer delete(reportFns, "__boom")

	_, err := e.Report("__boom")
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	if errors.Is(err, ErrUnknownReport) {
		t.Fatal("panic must not masquerade as an unknown report")
	}
	if _, err := e.Report("table1"); err != nil {
		t.Fatalf("engine wedged after recovered panic: %v", err)
	}
}

// TestEngineMetrics: the registry's series agree with the engine's own
// Stats counters after a full drain — one unlabelled series each, the
// view's under every name a replay is counted — and the latency/duration
// histograms saw traffic.
func TestEngineMetrics(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	e := newEngine(t, in, func(c *Config) { c.Metrics = reg })
	feed(t, e, b)
	e.Drain()
	const reads = 3 // the first replays; nothing moved before the others
	for i := 0; i < reads; i++ {
		if a := e.Analysis(); a == nil {
			t.Fatal("nil analysis")
		}
	}
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	if err := e.WriteCheckpoint(ckpt, nil); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	conns := reg.Counter("stream_conns_ingested_total", "").Value()
	if conns != st.ConnsIngested || st.ConnsIngested != uint64(len(b.Raw.Conns)) {
		t.Errorf("conns counter = %d, stats = %d, fed %d", conns, st.ConnsIngested, len(b.Raw.Conns))
	}
	// One batch per connection was fed; a certificate crosses no buffer.
	if applied := reg.Histogram("stream_apply_latency_seconds", "", nil).Count(); applied != st.ConnsIngested {
		t.Errorf("apply latency observations = %d, want %d", applied, st.ConnsIngested)
	}
	if got := reg.Counter("stream_certs_ingested_total", "").Value(); got != st.CertsIngested || got != uint64(len(b.Raw.Certs)) {
		t.Errorf("certs counter = %d, stats = %d, fed %d", got, st.CertsIngested, len(b.Raw.Certs))
	}
	if got := reg.Gauge("stream_store_hot_certs", "").Value(); int(got) != st.UniqueCerts {
		t.Errorf("roster gauge = %v, stats = %d", got, st.UniqueCerts)
	}
	if checkpoints, ckptBytes := reg.Counter("stream_checkpoints_total", "").Value(), reg.Gauge("stream_checkpoint_bytes", "").Value(); checkpoints != 1 || ckptBytes <= 0 {
		t.Errorf("%d checkpoint segments counted, %v bytes; want one", checkpoints, ckptBytes)
	}
	// The first read replayed, under every name that is counted.
	var replays uint64
	for _, k := range mergeReplays(reg) {
		replays += k
	}
	if got := reg.Counter("stream_rebuilds_total", "").Value(); got != 1 || replays != 1 || st.Rebuilds != 1 {
		t.Errorf("rebuilds counter = %d, replays by reason = %d (%v), stats = %d; want 1 each",
			got, replays, mergeReplays(reg), st.Rebuilds)
	}
	if got := reg.Histogram("stream_rebuild_seconds", "", nil).Count(); got != 1 {
		t.Errorf("rebuild histogram saw %d replays, want 1", got)
	}
	if merges, timed := reg.Counter("stream_merges_total", "").Value(), reg.Histogram("stream_merge_seconds", "", nil).Count(); merges != 1 || timed != 1 {
		t.Errorf("%d merges counted, %d timed, want 1 each", merges, timed)
	}
	if got := reg.Histogram("stream_materialize_seconds", "", nil).Count(); got != reads {
		t.Errorf("materialize histogram saw %d reads, want %d", got, reads)
	}
	if got := reg.Histogram("stream_checkpoint_seconds", "", nil).Count(); got != 1 {
		t.Errorf("checkpoint histogram saw %d commits, want 1", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stream_conns_ingested_total ",
		"stream_certs_ingested_total ",
		"stream_store_hot_certs ",
		"stream_buffer_capacity ",
		"stream_buffer_occupancy ",
		"stream_conns_retained ",
		`stream_merge_replays_total{reason="order"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestMetricsDoNotChangeResults: an instrumented engine produces the
// same Analysis as an uninstrumented one (observability is pure).
func TestMetricsDoNotChangeResults(t *testing.T) {
	b := genBuild(99, 2000)
	base := core.Run(inputFromBuild(b))

	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, func(c *Config) { c.Metrics = metrics.New() })
	feed(t, e, b)
	e.Drain()
	if got := e.Analysis(); !reflect.DeepEqual(base, got) {
		t.Error("instrumented engine diverges from batch")
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

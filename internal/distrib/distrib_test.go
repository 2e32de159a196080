package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/workload"
)

// certList orders the build's certificate map by fingerprint so tests
// can split it into deterministic slices.
func certList(b *workload.Build) []*certmodel.CertInfo {
	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	return certs
}

// feedSlice pushes index ranges of the build — the tool for splitting
// one dataset across sensors and sync rounds. Connections go first so
// every certificate arrives late (the §3.2 retroactive path).
func feedSlice(t *testing.T, g *stream.Engine, b *workload.Build, certs []*certmodel.CertInfo, c0, c1, n0, n1 int) {
	t.Helper()
	for i := n0; i < n1; i++ {
		if !g.IngestConn(&b.Raw.Conns[i]) {
			t.Fatal("conn event rejected")
		}
	}
	for _, c := range certs[c0:c1] {
		if !g.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
			t.Fatal("cert event rejected")
		}
	}
}

// swapExporter lets a test replace the engine behind a running sensor
// server — a sensor process restart with a stable address.
type swapExporter struct {
	mu  sync.Mutex
	exp Exporter
}

func (s *swapExporter) current() Exporter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exp
}

func (s *swapExporter) ExportFrom(since, epoch uint64, pairs int) (*stream.ExportState, error) {
	return s.current().ExportFrom(since, epoch, pairs)
}

func (s *swapExporter) NextPublish() <-chan struct{} { return s.current().NextPublish() }

func (s *swapExporter) swap(exp Exporter) {
	s.mu.Lock()
	s.exp = exp
	s.mu.Unlock()
}

// newSensorServer serves exp's /api/v1/snapshot the way mtlsd -role
// sensor does, from a Sensor.
func newSensorServer(t *testing.T, exp Exporter) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/snapshot", NewSensor(exp, nil, nil).Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newSensorEngine builds an exporting engine over the shared input.
func newSensorEngine(t *testing.T, b *workload.Build) *stream.Engine {
	t.Helper()
	in := inputFromBuild(b)
	in.Raw = nil
	e, err := stream.New(stream.Config{Input: in, TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func newAgg(t *testing.T, b *workload.Build, reg *metrics.Registry, urls ...string) *Aggregator {
	t.Helper()
	return newAggEvery(t, b, reg, time.Hour, urls...) // tests drive syncs explicitly
}

// analysisJSON normalizes an analysis for comparison across the HTTP
// boundary: the snapshot codec is JSON, so time.Time location pointers
// differ even when the instants are identical.
func analysisJSON(t *testing.T, a *core.Analysis) string {
	t.Helper()
	buf, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestAggregatorEquivalence is the tier's oracle: an aggregator over N
// sensors holding disjoint contiguous connection slices reproduces the
// analysis of one engine over the union — at N ∈ {1, 2, 4}, with every
// certificate arriving after its slice's connections (out-of-order
// delivery plus §3.2 retroactive exclusions). Each sensor sees the full
// certificate population, as in a real deployment: a sensor's x509 log
// records every certificate its own connections exchanged, so the
// certificates referenced by a connection are always co-located with it.
func TestAggregatorEquivalence(t *testing.T) {
	b := genBuild(20240504, 1200)
	want := analysisJSON(t, core.Run(inputFromBuild(b)))
	certs := certList(b)

	for _, n := range []int{1, 2, 4} {
		urls := make([]string, n)
		for i := 0; i < n; i++ {
			e := newSensorEngine(t, b)
			n0, n1 := i*len(b.Raw.Conns)/n, (i+1)*len(b.Raw.Conns)/n
			feedSlice(t, e, b, certs, 0, len(certs), n0, n1)
			e.Drain()
			urls[i] = newSensorServer(t, e).URL
		}

		a := newAgg(t, b, nil, urls...)
		if err := a.SyncAll(context.Background()); err != nil {
			t.Fatalf("sensors=%d: SyncAll: %v", n, err)
		}
		if got := analysisJSON(t, a.Analysis()); got != want {
			t.Errorf("sensors=%d: aggregated analysis differs from union engine", n)
		}

		// The named-report surface materializes over the same merge.
		if _, err := a.Report("table4"); err != nil {
			t.Errorf("sensors=%d: Report(table4): %v", n, err)
		}
		if _, err := a.Report("nosuch"); err == nil {
			t.Errorf("sensors=%d: Report(nosuch) succeeded", n)
		}
	}
}

// TestAggregatorDiskStoreSensorEquivalence pins the snapshot/restore
// interplay with the pluggable store: a sensor running the disk-backed
// store under a hot budget far below its working set (so Export reads
// cross the cold tier) must serve snapshots the aggregator merges into
// the same analysis as an all-memory fleet — including an incremental
// delta sync after more rows land.
func TestAggregatorDiskStoreSensorEquivalence(t *testing.T) {
	b := genBuild(20240504, 1200)
	want := analysisJSON(t, core.Run(inputFromBuild(b)))
	certs := certList(b)
	half := len(b.Raw.Conns) / 2

	in := inputFromBuild(b)
	in.Raw = nil
	disk, err := stream.New(stream.Config{
		Input: in, TrackExport: true,
		Store: "disk", StoreDir: t.TempDir(), HotBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	mem := newSensorEngine(t, b)

	// Disjoint halves; the disk sensor gets the first, memory the rest.
	feedSlice(t, disk, b, certs, 0, len(certs), 0, half/2)
	feedSlice(t, mem, b, certs, 0, len(certs), half, len(b.Raw.Conns))
	disk.Drain()
	mem.Drain()

	a := newAgg(t, b, nil,
		newSensorServer(t, disk).URL,
		newSensorServer(t, mem).URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second round: the rest of the disk sensor's slice arrives and the
	// next sync must pick it up as a delta against the recorded cursor.
	feedSlice(t, disk, b, certs, 0, 0, half/2, half)
	disk.Drain()
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := analysisJSON(t, a.Analysis()); got != want {
		t.Error("aggregated analysis over a disk-store sensor differs from the union engine")
	}
}

// newRetentionSensor is newSensorEngine with a retention window and
// per-event eviction sweeps, so the retained set is exactly the window
// behind the watermark — deterministic for equivalence checks.
func newRetentionSensor(t *testing.T, b *workload.Build, r time.Duration) *stream.Engine {
	t.Helper()
	in := inputFromBuild(b)
	in.Raw = nil
	e, err := stream.New(stream.Config{Input: in, TrackExport: true, Retention: r, EvictEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestAggregatorRetentionEquivalence pins the retention-divergence fix:
// snapshots carry the sensor's window, and the aggregator ages
// accumulated connections against the global watermark. Deltas only
// ship records first observed since the cursor, so before the fix a
// connection shipped in an early sync sat at the aggregator forever and
// the merged analysis drifted away from a single windowed daemon over
// the union of the logs. Two sync rounds per sensor make exactly that
// happen: round-1 connections age out of the window by round 2.
func TestAggregatorRetentionEquivalence(t *testing.T) {
	b := genBuild(20240504, 1200)
	certs := certList(b)
	conns := b.Raw.Conns
	// ~6.5 months of a 23-month stream: most of the study ages out.
	const retention = 200 * 24 * time.Hour

	// Feed in timestamp order — a live tail's arrival order — so the
	// watermark advances between sync rounds and later rounds age the
	// earlier rounds' records out of the window.
	order := make([]int, len(conns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return conns[order[i]].TS.Before(conns[order[j]].TS) })
	feedSorted := func(g *stream.Engine, lo, hi int) {
		t.Helper()
		for _, idx := range order[lo:hi] {
			if !g.IngestConn(&conns[idx]) {
				t.Fatal("conn event rejected")
			}
		}
	}
	feedCerts := func(g *stream.Engine) {
		t.Helper()
		for _, c := range certs {
			if !g.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
				t.Fatal("cert event rejected")
			}
		}
	}

	in := inputFromBuild(b)
	in.Raw = nil
	union, err := stream.New(stream.Config{Input: in, Retention: retention, EvictEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(union.Close)
	feedSorted(union, 0, len(conns))
	feedCerts(union)
	union.Drain()
	ust := union.Stats()
	if ust.Evicted == 0 || ust.Retained >= len(conns) {
		t.Fatalf("window too wide to test: evicted %d, retained %d of %d",
			ust.Evicted, ust.Retained, len(conns))
	}
	want := analysisJSON(t, union.Analysis())

	for _, n := range []int{1, 2, 4} {
		engines := make([]*stream.Engine, n)
		urls := make([]string, n)
		for i := range engines {
			engines[i] = newRetentionSensor(t, b, retention)
			urls[i] = newSensorServer(t, engines[i]).URL
		}
		reg := metrics.New()
		a := newAgg(t, b, reg, urls...)

		// Each sensor feeds its contiguous slice in two halves with a
		// sync after each, so every sensor's round-1 records are already
		// at the aggregator when the watermark moves past them.
		for round := 0; round < 2; round++ {
			for i, e := range engines {
				n0, n1 := i*len(conns)/n, (i+1)*len(conns)/n
				mid := (n0 + n1) / 2
				if round == 0 {
					feedSorted(e, n0, mid)
					feedCerts(e)
				} else {
					feedSorted(e, mid, n1)
				}
				e.Drain()
			}
			if err := a.SyncAll(context.Background()); err != nil {
				t.Fatalf("sensors=%d round %d: SyncAll: %v", n, round, err)
			}
		}

		if got := analysisJSON(t, a.Analysis()); got != want {
			t.Errorf("sensors=%d: windowed aggregation differs from union engine", n)
		}
		st := a.Stats()
		if st.Retained != ust.Retained {
			t.Errorf("sensors=%d: aggregator retains %d conns, union engine %d",
				n, st.Retained, ust.Retained)
		}
		var aggEvicted uint64
		for _, s := range a.SensorStatuses() {
			aggEvicted += s.Evicted
		}
		if aggEvicted == 0 {
			t.Errorf("sensors=%d: aggregator evicted nothing — delta-shipped conns never age out", n)
		}
		if st.Evicted != aggEvicted {
			t.Errorf("sensors=%d: Stats().Evicted = %d, sensors sum to %d", n, st.Evicted, aggEvicted)
		}

		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "distrib_aggregator_evicted_total") {
			t.Error("metrics exposition missing distrib_aggregator_evicted_total")
		}

		// A materialized merge reads the replicas' own arrays, so it must
		// outlive a later sync untouched: one connection far past the
		// window is appended in place and ages every other record out of
		// every replica. The sync runs on its own goroutine so the race
		// detector sees it overlap the reads.
		a.WithPipeline(func(p *core.Pipeline) {
			before := analysisJSON(t, p.RunAll())
			late := conns[order[len(order)-1]]
			late.UID, late.TS = "Clate", late.TS.Add(2*retention)
			engines[0].IngestConn(&late)
			engines[0].Drain()
			done := make(chan struct{})
			go func() {
				defer close(done)
				if err := a.SyncAll(context.Background()); err != nil {
					t.Errorf("sensors=%d: late SyncAll: %v", n, err)
				}
			}()
			during := analysisJSON(t, p.RunAll())
			<-done
			if after := analysisJSON(t, p.RunAll()); before != during || before != after {
				t.Errorf("sensors=%d: a materialized merge changed under a later sync and eviction", n)
			}
		})
		if got := a.Stats().Retained; got != 1 {
			t.Errorf("sensors=%d: %d conns retained behind the late watermark, want 1", n, got)
		}
	}
}

// TestAggregatorDeltaSync: the second pull rides the cursor — only new
// records travel — and an idle third pull does not invalidate the merge
// cache.
func TestAggregatorDeltaSync(t *testing.T) {
	b := genBuild(7, 1200)
	want := analysisJSON(t, core.Run(inputFromBuild(b)))
	certs := certList(b)
	half := len(b.Raw.Conns) / 2

	engines := make([]*stream.Engine, 2)
	urls := make([]string, 2)
	for i := range engines {
		engines[i] = newSensorEngine(t, b)
		urls[i] = newSensorServer(t, engines[i]).URL
	}
	// Round 1: connections only, split across the sensors. No
	// certificates yet, so every verdict is still pending.
	feedSlice(t, engines[0], b, certs, 0, 0, 0, half)
	feedSlice(t, engines[1], b, certs, 0, 0, half, len(b.Raw.Conns))
	for _, e := range engines {
		e.Drain()
	}

	reg := metrics.New()
	a := newAgg(t, b, reg, urls...)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.SensorStatuses()
	if st[0].Cursor == 0 || st[1].Cursor == 0 {
		t.Fatalf("cursors not advanced: %+v", st)
	}

	// Round 2: all certificates arrive late, on both sensors (each
	// sensor's x509 log covers its own connections' certificates).
	feedSlice(t, engines[0], b, certs, 0, len(certs), 0, 0)
	feedSlice(t, engines[1], b, certs, 0, len(certs), 0, 0)
	for _, e := range engines {
		e.Drain()
	}
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range a.SensorStatuses() {
		if s.Syncs != 2 || s.Errors != 0 || s.FullResyncs != 0 {
			t.Fatalf("sensor %d: %+v, want 2 clean syncs", i, s)
		}
		if s.Conns == 0 || s.Certs == 0 {
			t.Fatalf("sensor %d accumulated nothing: %+v", i, s)
		}
	}
	if got := analysisJSON(t, a.Analysis()); got != want {
		t.Error("full+delta aggregation differs from union engine")
	}

	// Round 3: nothing new. The empty deltas must not dirty the merge.
	stats := a.Stats()
	if stats.Dirty {
		t.Error("freshly merged view reported dirty")
	}
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stats = a.Stats(); stats.Dirty {
		t.Error("empty steady-state deltas dirtied the merged view")
	}
	if stats.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", stats.Rebuilds)
	}
	if stats.ConnsIngested != uint64(len(b.Raw.Conns)) {
		t.Errorf("ConnsIngested = %d, want %d", stats.ConnsIngested, len(b.Raw.Conns))
	}
	if stats.UniqueCerts != len(b.Raw.Certs) {
		t.Errorf("UniqueCerts = %d, want %d", stats.UniqueCerts, len(b.Raw.Certs))
	}

	// The sync metrics made it to the registry.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distrib_syncs_total", "distrib_sync_bytes_total",
		"distrib_merges_total", "distrib_sensor_last_sync_age_seconds"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestAggregatorSensorRestartResume: a sensor that checkpoints, dies,
// and restores keeps its epoch and numbering, so the aggregator's
// cursor keeps working — delta resume, no full re-sync.
func TestAggregatorSensorRestartResume(t *testing.T) {
	b := genBuild(20240504, 800)
	want := analysisJSON(t, core.Run(inputFromBuild(b)))
	certs := certList(b)
	half := len(b.Raw.Conns) / 2

	in := inputFromBuild(b)
	in.Raw = nil
	cfg := stream.Config{Input: in, TrackExport: true}
	e1, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedSlice(t, e1, b, certs, 0, len(certs)/2, 0, half)
	e1.Drain()

	sw := &swapExporter{exp: e1}
	srv := newSensorServer(t, sw)
	a := newAgg(t, b, nil, srv.URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The sensor checkpoints and dies; a new process restores and
	// catches up on the rest of the log.
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := e1.WriteCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	e2, _, err := stream.Restore(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	feedSlice(t, e2, b, certs, len(certs)/2, len(certs), half, len(b.Raw.Conns))
	e2.Drain()
	sw.swap(e2)

	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := a.SensorStatuses()[0]
	if s.FullResyncs != 0 {
		t.Errorf("checkpointed restart forced %d full re-syncs, want delta resume", s.FullResyncs)
	}
	if s.Syncs != 2 || s.Errors != 0 {
		t.Errorf("sensor status after restart: %+v", s)
	}
	if got := analysisJSON(t, a.Analysis()); got != want {
		t.Error("aggregation across sensor restart differs from union engine")
	}
}

// TestAggregatorFreshRestartFullResync: a sensor that restarts without
// its checkpoint renumbers under a new epoch; the aggregator's delta
// request comes back 410 Gone and it recovers by discarding its
// accumulated view and pulling a full snapshot.
func TestAggregatorFreshRestartFullResync(t *testing.T) {
	b := genBuild(99, 800)
	want := analysisJSON(t, core.Run(inputFromBuild(b)))
	certs := certList(b)
	half := len(b.Raw.Conns) / 2

	e1 := newSensorEngine(t, b)
	feedSlice(t, e1, b, certs, 0, len(certs)/2, 0, half)
	e1.Drain()
	sw := &swapExporter{exp: e1}
	srv := newSensorServer(t, sw)
	a := newAgg(t, b, nil, srv.URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The replacement lost the checkpoint: it re-tails the whole log
	// under a fresh epoch.
	e2 := newSensorEngine(t, b)
	feedSlice(t, e2, b, certs, 0, len(certs), 0, len(b.Raw.Conns))
	e2.Drain()
	sw.swap(e2)

	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := a.SensorStatuses()[0]
	if s.FullResyncs != 1 {
		t.Errorf("FullResyncs = %d, want 1", s.FullResyncs)
	}
	if s.LastError != "" {
		t.Errorf("recovered sync left LastError = %q", s.LastError)
	}
	if got := analysisJSON(t, a.Analysis()); got != want {
		t.Error("post-410 full re-sync differs from union engine")
	}
}

// TestAggregatorUnreachableSensor: a dead sensor accrues errors and
// backoff while the aggregator keeps serving the last-good merge, with
// the staleness visible per sensor.
func TestAggregatorUnreachableSensor(t *testing.T) {
	b := genBuild(7, 600)
	certs := certList(b)
	half := len(b.Raw.Conns) / 2

	e0, e1 := newSensorEngine(t, b), newSensorEngine(t, b)
	feedSlice(t, e0, b, certs, 0, len(certs)/2, 0, half)
	feedSlice(t, e1, b, certs, len(certs)/2, len(certs), half, len(b.Raw.Conns))
	e0.Drain()
	e1.Drain()
	srv0 := newSensorServer(t, e0)
	srv1 := newSensorServer(t, e1)

	a := newAgg(t, b, nil, srv0.URL, srv1.URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := analysisJSON(t, a.Analysis())

	srv1.Close()
	for i := 0; i < 3; i++ {
		if err := a.SyncAll(context.Background()); err == nil {
			t.Fatal("SyncAll against a dead sensor reported success")
		}
	}

	st := a.SensorStatuses()
	if st[0].Errors != 0 || st[0].Syncs != 4 {
		t.Errorf("live sensor disturbed: %+v", st[0])
	}
	if st[1].Errors != 3 || st[1].LastError == "" {
		t.Errorf("dead sensor status: %+v", st[1])
	}
	if st[1].LastSyncAge <= 0 {
		t.Errorf("dead sensor LastSyncAge = %v, want > 0", st[1].LastSyncAge)
	}

	// Last-good state still serves, unchanged.
	if got := analysisJSON(t, a.Analysis()); got != want {
		t.Error("dead sensor changed the served analysis")
	}

	// The Run loop honors the backoff: with the sensor dead and the
	// backoff window open, ticks skip it rather than hammering it.
	a.mu.Lock()
	if a.sensors[1].bo.Ready(time.Now()) {
		t.Error("backoff window not open after consecutive failures")
	}
	a.mu.Unlock()
}

// TestAggregatorRunLoop drives the real ticker loop briefly: syncs
// happen without explicit SyncAll calls and stop at cancellation.
func TestAggregatorRunLoop(t *testing.T) {
	b := genBuild(7, 100)
	certs := certList(b)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certs, 0, len(certs), 0, len(b.Raw.Conns))
	e.Drain()
	srv := newSensorServer(t, e)

	a, err := NewAggregator(Config{
		Input:    inputFromBuild(b),
		Sensors:  []string{srv.URL},
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	// The first sync serializes a full snapshot, which is slow under the
	// race detector — the deadline is generous.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := a.SensorStatuses()[0]; s.Syncs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run loop never synced twice")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
	if got := len(a.Analysis().CertStats.Rows); got == 0 {
		t.Error("run-loop aggregation produced an empty analysis")
	}
}

// TestAggregatorNegotiation: there is one schema and nothing to negotiate.
// A sensor that serves only schema 1 refuses the aggregator's ?schema=2,
// which is a sync error naming what the sensor offers, with nothing
// merged; this release's sensor refuses ?schema=1 listing 2, and serves
// schema 2 to a request that names no schema.
func TestAggregatorNegotiation(t *testing.T) {
	b := genBuild(7, 200)
	certs := certList(b)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certs, 0, len(certs), 0, len(b.Raw.Conns))
	e.Drain()

	v1only := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.URL.Query().Get("schema"); v != "1" {
			writeAPIError(w, http.StatusNotAcceptable, "unsupported snapshot schema "+v+"; supported: 1")
			return
		}
		st, err := e.Export(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		w.Write(schema1Body(FromExport(st)))
	}))
	t.Cleanup(v1only.Close)
	a := newAgg(t, b, nil, v1only.URL)
	if err := a.SyncAll(context.Background()); err == nil || !strings.Contains(err.Error(), "406") || !strings.Contains(err.Error(), "supported: 1") {
		t.Fatalf("a sensor serving only schema 1: err = %v, want its 406 naming schema 1", err)
	}
	if st := a.SensorStatuses()[0]; st.Conns != 0 || st.Certs != 0 || st.Cursor != 0 || st.Syncs != 0 || st.Schema != 0 {
		t.Fatalf("a refused sync merged something: %+v", st)
	}

	srv := newSensorServer(t, e)
	if code, body := httpGet(t, srv.URL+"/api/v1/snapshot?schema=1"); code != http.StatusNotAcceptable || !strings.Contains(string(body), "supported: 2") {
		t.Fatalf("?schema=1: status %d, body %s; want 406 listing 2", code, body)
	}
	code, body := httpGet(t, srv.URL+"/api/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("no schema named: status %d", code)
	}
	if snap, err := Decode(bytes.NewReader(body)); err != nil || len(snap.Conns) != len(b.Raw.Conns) {
		t.Fatalf("no schema named: not a schema 2 body of the sensor's state (%v)", err)
	}
}

// TestSensorHandlerErrors pins the snapshot endpoint's HTTP taxonomy.
func TestSensorHandlerErrors(t *testing.T) {
	b := genBuild(7, 200)
	e := newSensorEngine(t, b)
	e.Drain()
	srv := newSensorServer(t, e)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/api/v1/snapshot?schema=999"); resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("schema=999: status %d, want 406", resp.StatusCode)
	}
	if resp := get("/api/v1/snapshot?since=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("since=nope: status %d, want 400", resp.StatusCode)
	}
	// A heartbeat past 32 bits of milliseconds would overflow into a
	// non-positive duration: a stream of heartbeats as fast as they encode.
	for _, follow := range []string{"nope", "-1", "4294967296"} {
		if resp := get("/api/v1/snapshot?follow=" + follow); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("follow=%s: status %d, want 400", follow, resp.StatusCode)
		}
	}
	if resp := get("/api/v1/snapshot?since=5&epoch=12345"); resp.StatusCode != http.StatusGone {
		t.Errorf("foreign epoch: status %d, want 410", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/api/v1/snapshot", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}

	// An engine without TrackExport cannot serve snapshots at all.
	in := inputFromBuild(b)
	in.Raw = nil
	plain, err := stream.New(stream.Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	psrv := newSensorServer(t, plain)
	if resp := get2(t, psrv.URL+"/api/v1/snapshot"); resp != http.StatusInternalServerError {
		t.Errorf("untracked engine: status %d, want 500", resp)
	}
}

func get2(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestNewAggregatorValidation pins the config contract.
func TestNewAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(Config{Sensors: []string{"x"}}); err == nil {
		t.Error("nil Input accepted")
	}
	if _, err := NewAggregator(Config{Input: &core.Input{}}); err == nil {
		t.Error("empty sensor list accepted")
	}
	a, err := NewAggregator(Config{Input: &core.Input{}, Sensors: []string{"host:9", "http://h2:9/"}})
	if err != nil {
		t.Fatal(err)
	}
	st := a.SensorStatuses()
	if st[0].URL != "http://host:9" || st[1].URL != "http://h2:9" {
		t.Errorf("URL normalization: %q, %q", st[0].URL, st[1].URL)
	}
}

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

// TestAggregatorSensorRestartResume: a sensor that checkpoints, dies,
// and restores numbers under a fresh epoch but continues the cursor the
// aggregator took before its checkpoint, and the aggregator adopts the
// epoch — delta resume, no full re-sync.
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

// TestAggregatorMergeOutlivesEviction: a materialized merge reads the
// replicas' own arrays, so it must outlive a later sync untouched — here
// one that lands a connection far past the retention window and ages
// every other record out of every replica. The sync runs on its own
// goroutine so the race detector sees it overlap the reads.
func TestAggregatorMergeOutlivesEviction(t *testing.T) {
	b := genBuild(20240504, 4000)
	certs := certList(b)
	const retention = 7 * 24 * time.Hour
	engines := []*stream.Engine{newRetentionSensor(t, b, retention), newRetentionSensor(t, b, retention)}
	reg := metrics.New()
	a := newAgg(t, b, reg, newSensorServer(t, engines[0]).URL, newSensorServer(t, engines[1]).URL)
	half := len(b.Raw.Conns) / 2
	feedSlice(t, engines[0], b, certs, 0, len(certs), 0, half)
	feedSlice(t, engines[1], b, certs, 0, len(certs), half, len(b.Raw.Conns))
	for _, e := range engines {
		e.Drain()
	}
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.WithPipeline(func(p *core.Pipeline) {
		before := analysisJSON(t, p.RunAll())
		late := b.Raw.Conns[0]
		late.UID, late.TS = "Clate", late.TS.AddDate(10, 0, 0)
		engines[0].IngestConn(&late)
		engines[0].Drain()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := a.SyncAll(context.Background()); err != nil {
				t.Errorf("late SyncAll: %v", err)
			}
		}()
		during := analysisJSON(t, p.RunAll())
		<-done
		if after := analysisJSON(t, p.RunAll()); before != during || before != after {
			t.Error("a materialized merge changed under a later sync and eviction")
		}
	})
	if got := a.Stats().Retained; got != 1 {
		t.Errorf("%d conns retained behind the late watermark, want 1", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"distrib_syncs_total", "distrib_sync_bytes_total", "distrib_merges_total",
		"distrib_sensor_last_sync_age_seconds", "distrib_aggregator_evicted_total"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

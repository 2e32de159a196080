package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// distribScale keeps the multi-daemon e2e runs fast.
const distribScale = 1000

// writeConnSlice rewrites dir/ssl.log with conns[lo:hi] of the build
// (header included); x509.log is left as WriteLogs produced it — every
// sensor observes the full certificate population, only the connection
// stream is split.
func writeConnSlice(t *testing.T, dir string, build *mtls.Build, lo, hi int) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "ssl.log"))
	if err != nil {
		t.Fatal(err)
	}
	w := zeek.NewSSLWriter(f)
	for i := lo; i < hi; i++ {
		if err := w.Write(&build.Raw.Conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// freePort reserves an ephemeral port and releases it for a daemon that
// must come back on the same address after a restart.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// fetchReports pulls every named report as decoded JSON.
func fetchReports(t *testing.T, base string) map[string]any {
	t.Helper()
	out := map[string]any{}
	for _, name := range stream.ReportNames() {
		code, body := httpGet(t, base+"/api/v1/reports/"+name)
		if code != 200 {
			t.Fatalf("report %s: HTTP %d: %s", name, code, body)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("report %s: %v", name, err)
		}
		out[name] = v
	}
	return out
}

// aggregatorOptions is the command line's defaults as an aggregator of
// sensors (comma-separated addresses) on an ephemeral port, pulling fast.
func aggregatorOptions(sensors string) options {
	o := testOptions("", distribScale)
	o.role, o.sensors, o.syncEvery = "aggregator", sensors, 50*time.Millisecond
	return o
}

// aggStats polls the aggregator's /api/v1/stats.
func aggStats(t *testing.T, base string) daemonStats {
	t.Helper()
	var st daemonStats
	code, body := httpGet(t, base+"/api/v1/stats")
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonDistrib is the two-process (here: four-goroutine) oracle:
// two sensor daemons tailing disjoint halves of the connection log —
// one started at -shards 2, which it ignores — an aggregator pulling both, and a
// union daemon tailing everything. Every report the aggregator serves
// must deep-equal the union daemon's, and the distributed tier's
// identity/health surfaces must be live on both roles.
func TestDaemonDistrib(t *testing.T) {
	build := campusBuild(t, distribScale)
	total := len(build.Raw.Conns)
	half := total / 2

	mkdir := func(lo, hi int) string {
		dir := t.TempDir()
		if err := mtls.WriteLogs(build.Raw, dir); err != nil {
			t.Fatal(err)
		}
		writeConnSlice(t, dir, build, lo, hi)
		return dir
	}
	dirA, dirB, dirU := mkdir(0, half), mkdir(half, total), t.TempDir()
	if err := mtls.WriteLogs(build.Raw, dirU); err != nil {
		t.Fatal(err)
	}

	oa := testOptions(dirA, distribScale)
	oa.role = "sensor"
	ob := testOptions(dirB, distribScale)
	ob.role, ob.shards = "sensor", 2
	ou := testOptions(dirU, distribScale)

	baseA, cancelA, exitA := startDaemon(t, oa)
	defer func() { cancelA(); <-exitA }()
	baseB, cancelB, exitB := startDaemon(t, ob)
	defer func() { cancelB(); <-exitB }()
	baseU, cancelU, exitU := startDaemon(t, ou)
	defer func() { cancelU(); <-exitU }()

	baseG, cancelG, exitG := startDaemon(t, aggregatorOptions(
		strings.TrimPrefix(baseA, "http://")+","+strings.TrimPrefix(baseB, "http://")))
	defer func() { cancelG(); <-exitG }()

	waitConns(t, baseU, uint64(total))
	waitConns(t, baseG, uint64(total))

	// The oracle: aggregated reports deep-equal the union daemon's.
	want := fetchReports(t, baseU)
	got := fetchReports(t, baseG)
	for name := range want {
		if !reflect.DeepEqual(want[name], got[name]) {
			t.Errorf("report %s: aggregator diverged from the union daemon", name)
		}
	}

	// Identity: both roles answer /api/v1/version with the schema set.
	var vi versionInfo
	code, body := httpGet(t, baseA+"/api/v1/version")
	if code != 200 {
		t.Fatalf("sensor version: HTTP %d", code)
	}
	if err := json.Unmarshal([]byte(body), &vi); err != nil {
		t.Fatal(err)
	}
	if vi.Service != "mtlsd" || vi.Role != "sensor" || len(vi.SnapshotSchemas) == 0 {
		t.Errorf("sensor version payload: %+v", vi)
	}
	code, body = httpGet(t, baseG+"/api/v1/version")
	if code != 200 {
		t.Fatalf("aggregator version: HTTP %d", code)
	}
	if err := json.Unmarshal([]byte(body), &vi); err != nil {
		t.Fatal(err)
	}
	if vi.Role != "aggregator" {
		t.Errorf("aggregator version payload: %+v", vi)
	}

	// Health: per-sensor sync state in the aggregator's stats.
	st := aggStats(t, baseG)
	if st.Role != "aggregator" || len(st.Sensors) != 2 {
		t.Fatalf("aggregator stats: role %q, %d sensors", st.Role, len(st.Sensors))
	}
	for _, s := range st.Sensors {
		if s.Cursor == 0 || s.Syncs == 0 || s.LastError != "" || s.Schema == 0 {
			t.Errorf("sensor status: %+v", s)
		}
	}

	// Monitors do not serve snapshots; sensors do.
	if code, _ := httpGet(t, baseU+"/api/v1/snapshot"); code != 404 {
		t.Errorf("monitor /api/v1/snapshot: HTTP %d, want 404", code)
	}
	if code, _ := httpGet(t, baseB+"/api/v1/snapshot"); code != 200 {
		t.Errorf("sensor started at -shards 2 /api/v1/snapshot: HTTP %d, want 200", code)
	}

	// The distrib_ metric families are exposed on both sides.
	_, sensorMetrics := httpGet(t, baseA+"/metrics")
	for _, series := range []string{"distrib_snapshots_served_total", "distrib_snapshot_bytes_total"} {
		if !strings.Contains(sensorMetrics, series) {
			t.Errorf("sensor /metrics missing %s", series)
		}
	}
	_, aggMetrics := httpGet(t, baseG+"/metrics")
	// Every per-sensor family is registered from boot, so the catalogue
	// check below covers the ones nothing has incremented yet.
	for _, series := range []string{"distrib_syncs_total", "distrib_sensor_cursor",
		"distrib_merges_total", "distrib_sensor_last_sync_age_seconds",
		"distrib_sync_errors_total", "distrib_full_resyncs_total", "distrib_aggregator_evicted_total"} {
		if !strings.Contains(aggMetrics, series) {
			t.Errorf("aggregator /metrics missing %s", series)
		}
	}
	checkCatalogued(t, aggMetrics)
}

// TestDaemonSensorRestartResume is the robustness e2e: the aggregator
// rides out a sensor outage serving last-good state with the staleness
// visible, and when the sensor comes back from its checkpoint on the
// same address, the cursor resumes on the delta path — never a full
// re-sync.
func TestDaemonSensorRestartResume(t *testing.T) {
	build := campusBuild(t, distribScale)
	total := len(build.Raw.Conns)
	half := total / 2

	dir := t.TempDir()
	if err := mtls.WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	writeConnSlice(t, dir, build, 0, half)

	addr := freePort(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	so := testOptions(dir, distribScale)
	so.listen, so.role, so.checkpoint, so.ckptEvery = addr, "sensor", ckpt, time.Hour
	_, cancelS, exitS := startDaemon(t, so)

	baseG, cancelG, exitG := startDaemon(t, aggregatorOptions(addr))
	defer func() { cancelG(); <-exitG }()
	waitConns(t, baseG, uint64(half))

	// Kill the sensor (clean shutdown writes the checkpoint).
	cancelS()
	if code := <-exitS; code != 0 {
		t.Fatalf("sensor exit code %d", code)
	}

	// Outage: the aggregator keeps serving last-good state and reports
	// the failure per sensor.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := aggStats(t, baseG)
		if len(st.Sensors) == 1 && st.Sensors[0].Errors > 0 && st.Sensors[0].LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregator never reported the dead sensor")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st := aggStats(t, baseG); st.ConnsIngested != uint64(half) {
		t.Errorf("last-good state lost during outage: %d conns", st.ConnsIngested)
	}
	if code, _ := httpGet(t, baseG+"/api/v1/reports/table1"); code != 200 {
		t.Errorf("reports unavailable during outage: HTTP %d", code)
	}
	_, aggMetrics := httpGet(t, baseG+"/metrics")
	if !strings.Contains(aggMetrics, "distrib_sync_errors_total") {
		t.Error("aggregator /metrics missing distrib_sync_errors_total during outage")
	}

	// The rest of the log arrives while the sensor is down.
	f, err := os.OpenFile(filepath.Join(dir, "ssl.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := zeek.NewSSLWriter(f)
	w.SkipHeader()
	for i := half; i < total; i++ {
		if err := w.Write(&build.Raw.Conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart from the checkpoint on the same address.
	_, cancelS2, exitS2 := startDaemon(t, so)
	defer func() { cancelS2(); <-exitS2 }()
	waitConns(t, baseG, uint64(total))

	st := aggStats(t, baseG)
	if st.Sensors[0].FullResyncs != 0 {
		t.Errorf("checkpointed sensor restart forced %d full re-syncs, want delta resume", st.Sensors[0].FullResyncs)
	}
	if st.Sensors[0].LastError != "" {
		t.Errorf("recovered sensor still reports error %q", st.Sensors[0].LastError)
	}

	// Equivalence after recovery: aggregator == fresh engine over the
	// whole dataset.
	in := mtls.InputFromBuild(campusBuild(t, distribScale))
	in.Raw = nil
	ref, err := stream.New(stream.Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, c := range build.Raw.Certs {
		ref.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range build.Raw.Conns {
		ref.IngestConn(&build.Raw.Conns[i])
	}
	ref.Drain()
	got := fetchReports(t, baseG)
	for _, name := range stream.ReportNames() {
		refOut, err := ref.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := json.Marshal(refOut)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		if err := json.Unmarshal(refJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got[name]) {
			t.Errorf("report %s diverged after sensor restart", name)
		}
	}
}

// TestDaemonRoleValidation pins the CLI contract: misuse exits 2 before
// any state exists.
func TestDaemonRoleValidation(t *testing.T) {
	cases := map[string]func(*options){
		"unknown role":            func(o *options) { o.role, o.logs = "relay", "x" },
		"sensors without role":    func(o *options) { o.logs, o.sensors = "x", "a:1" },
		"aggregator no sensors":   func(o *options) { o.role = "aggregator" },
		"aggregator with logs":    func(o *options) { o.role, o.sensors, o.logs = "aggregator", "a:1", "x" },
		"aggregator checkpointed": func(o *options) { o.role, o.sensors, o.checkpoint = "aggregator", "a:1", "c" },
	}
	for name, set := range cases {
		o := defaultOptions()
		o.listen = "127.0.0.1:0"
		set(&o)
		if code := run(context.Background(), o, testLogger(t), nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}

// TestDaemonSensorFollowStream: a sensor daemon flushes each snapshot of
// a followed stream through its instrumented handler (a heartbeat
// arrives, not just the first snapshot), counts the stream in
// distrib_follow_streams, and on SIGTERM ends it at a snapshot boundary
// and exits within a second: the body decodes whole to its end.
func TestDaemonSensorFollowStream(t *testing.T) {
	dir := writeTestLogs(t)
	o := testOptions(dir, testScale)
	o.role = "sensor"
	base, cancel, exit := startDaemon(t, o)
	defer cancel()
	if code, metrics := httpGet(t, base+"/metrics"); code != 200 || !strings.Contains(metrics, "distrib_follow_streams 0") {
		t.Fatalf("a fresh sensor does not expose distrib_follow_streams 0 (HTTP %d)", code)
	}
	waitIngested(t, base)

	resp, err := http.Get(base + "/api/v1/snapshot?schema=2&follow=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	decoded := make(chan error, 1)
	next := func() error {
		go func() {
			_, err := distrib.Decode(body)
			decoded <- err
		}()
		select {
		case err := <-decoded:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("no snapshot arrived on the followed stream")
			return nil
		}
	}
	for i := 0; i < 3; i++ { // the first snapshot and two heartbeats
		if err := next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, metrics := httpGet(t, base+"/metrics"); !strings.Contains(metrics, "distrib_follow_streams 1") {
		t.Error("distrib_follow_streams is not 1 with one stream open")
	}

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0", code)
		}
	case <-time.After(time.Second):
		t.Fatal("a sensor holding a followed stream did not exit within 1s of SIGTERM")
	}
	t.Logf("exited %v after SIGTERM", time.Since(start))
	for {
		err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("the stream ended mid-snapshot: %v", err)
		}
	}
}

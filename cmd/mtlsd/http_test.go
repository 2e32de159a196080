package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// TestAPIErrorEnvelope pins the /api/v1 failure contract: an unknown
// report is {"error", "code": 404} and a materialization failure is
// {"error", "code": 500}.
func TestAPIErrorEnvelope(t *testing.T) {
	reg := metrics.New()
	srv := httptest.NewServer(newMux(failingReporter{}, reg, testLogger(t), false, daemonInfo{}))
	defer srv.Close()

	cases := []struct {
		path string
		code int
	}{
		{"/api/v1/reports/definitely-not-a-report", http.StatusNotFound},
		{"/api/v1/reports/table1", http.StatusInternalServerError},
	}
	for _, c := range cases {
		code, body, hdr := httpGetFull(t, srv.URL+c.path)
		if code != c.code {
			t.Errorf("%s: status %d, want %d", c.path, code, c.code)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type %q, want application/json", c.path, ct)
		}
		var env apiError
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Errorf("%s: body is not the JSON envelope: %v (%q)", c.path, err, body)
			continue
		}
		if env.Code != c.code || env.Error == "" {
			t.Errorf("%s: envelope %+v, want code %d and a message", c.path, env, c.code)
		}
	}
}

// TestRuntimeCountersExported holds the daemon's runtime series to the
// Go runtime's allocation and GC totals: every series is exposed as a
// counter and grows between two scrapes with allocations and a GC cycle
// between them. TestDaemonEndToEnd sees them on a monitor's /metrics.
func TestRuntimeCountersExported(t *testing.T) {
	reg := metrics.New()
	runtimeCounters(reg)
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()
	scrape := func() map[string]uint64 {
		t.Helper()
		code, body := httpGet(t, srv.URL+"/metrics")
		if code != 200 {
			t.Fatalf("/metrics: %d", code)
		}
		got := make(map[string]uint64)
		for _, rs := range runtimeSeries {
			if !strings.Contains(body, "# TYPE "+rs.name+" counter\n") {
				t.Fatalf("/metrics has no counter %s", rs.name)
			}
			for _, line := range strings.Split(body, "\n") {
				if v, ok := strings.CutPrefix(line, rs.name+" "); ok {
					n, err := strconv.ParseUint(v, 10, 64)
					if err != nil {
						t.Fatalf("%s: %v", line, err)
					}
					got[rs.name] = n
				}
			}
		}
		return got
	}
	before := scrape()
	sink := make([][]byte, 0, 1000)
	for i := 0; i < cap(sink); i++ {
		sink = append(sink, make([]byte, 64+i))
	}
	runtime.GC()
	after := scrape()
	for _, rs := range runtimeSeries {
		if after[rs.name] <= before[rs.name] {
			t.Errorf("%s: %d then %d, want growth", rs.name, before[rs.name], after[rs.name])
		}
	}
	runtime.KeepAlive(sink)
}

// TestDaemonEndToEnd drives a live daemon over HTTP: liveness, stats,
// the metrics exposition (ingest, tail lag, rebuilds, HTTP latency),
// report success, 404-vs-500 mapping, and pprof behind the flag.
func TestDaemonEndToEnd(t *testing.T) {
	dir := writeTestLogs(t)
	o := testOptions(dir, testScale)
	o.pprof, o.logLevel = true, "debug"
	// A checkpoint and a quarantine file register their series too.
	o.checkpoint, o.quarantine = t.TempDir(), filepath.Join(t.TempDir(), "q.log")
	base, cancel, exit := startDaemon(t, o)
	defer func() {
		cancel()
		<-exit
	}()

	if code, body := httpGet(t, base+"/api/v1/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	waitIngested(t, base)

	// Reports: list (with and without the trailing slash), one table,
	// unknown name -> 404 (not 500, not 200).
	for _, list := range []string{"/api/v1/reports", "/api/v1/reports/"} {
		if code, body := httpGet(t, base+list); code != 200 || !strings.Contains(body, "table1") {
			t.Errorf("report list %s: %d %s", list, code, body)
		}
	}
	code, body := httpGet(t, base+"/api/v1/reports/table1")
	if code != 200 {
		t.Errorf("table1: %d %s", code, body)
	}
	var table1 struct{ Rows []struct{ Total int } }
	if err := json.Unmarshal([]byte(body), &table1); err != nil || len(table1.Rows) == 0 {
		t.Errorf("table1 body: %v %s", err, body)
	}
	if code, _ := httpGet(t, base+"/api/v1/reports/nope"); code != http.StatusNotFound {
		t.Errorf("unknown report: %d, want 404", code)
	}
	// /api/v1 is the only edge: the unversioned aliases are gone.
	for _, legacy := range []string{"/healthz", "/stats", "/reports/table1"} {
		if code, _ := httpGet(t, base+legacy); code != http.StatusNotFound {
			t.Errorf("legacy route %s: %d, want 404", legacy, code)
		}
	}

	// Metrics: Prometheus text with the core series, all live.
	code, metricsBody := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, series := range []string{
		"stream_conns_ingested_total",
		"stream_certs_ingested_total",
		"stream_rebuilds_total",
		"tail_lag_bytes{file=\"ssl\"}",
		"tail_bytes_read_total{file=\"ssl\"}",
		"tail_rotations_total{file=\"x509\"}",
		"tail_wakes_total{reason=\"event\"}",
		"tail_wakes_total{reason=\"tick\"}",
		"mtlsd_http_request_seconds_count{path=\"/api/v1/healthz\"}",
		"mtlsd_http_requests_total{path=\"/api/v1/healthz\",code=\"200\"}",
		"stream_apply_latency_seconds_bucket",
		"go_gc_heap_allocs_objects_total",
		"go_gc_heap_allocs_bytes_total",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	checkCatalogued(t, metricsBody)
	for _, nonZero := range []string{"stream_conns_ingested_total ", "tail_bytes_read_total{file=\"ssl\"} "} {
		for _, line := range strings.Split(metricsBody, "\n") {
			if strings.HasPrefix(line, nonZero) && strings.HasSuffix(line, " 0") {
				t.Errorf("series %s is zero after ingestion", nonZero)
			}
		}
	}

	// JSON exposition of the same registry.
	if code, body := httpGet(t, base+"/metrics?format=json"); code != 200 {
		t.Errorf("/metrics json: %d", code)
	} else {
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Errorf("metrics json decode: %v", err)
		}
	}

	// pprof is mounted when the flag is on.
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: %d", code)
	}
}

// TestDaemonPprofOffByDefault: without -pprof the profile endpoints are
// not mounted.
func TestDaemonPprofOffByDefault(t *testing.T) {
	dir := writeTestLogs(t)
	base, cancel, exit := startDaemon(t, testOptions(dir, testScale))
	defer func() {
		cancel()
		<-exit
	}()
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof mounted without -pprof: %d", code)
	}
}

// TestReportsHandler500: an internal materialization failure maps to
// 500, not 404 — exercised against a stub reporter so the failure is
// deterministic.
func TestReportsHandler500(t *testing.T) {
	reg := metrics.New()
	mux := newMux(failingReporter{}, reg, testLogger(t), false, daemonInfo{})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := http.Get(srv.URL + "/api/v1/reports/table1")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Errorf("internal failure: %d, want 500", res.StatusCode)
	}

	res, err = http.Get(srv.URL + "/api/v1/reports/definitely-not-a-report")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown report: %d, want 404", res.StatusCode)
	}

	// The status-labeled request counters observed both outcomes.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`code="500"`, `code="404"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("request counter missing %s:\n%s", want, buf.String())
		}
	}
}

// failingReporter fails materialization for known names and reports
// unknown ones with the typed sentinel, mirroring the engine's contract.
type failingReporter struct{}

func (failingReporter) Report(name string) (any, error) {
	if name == "table1" {
		return nil, fmt.Errorf("simulated materialization failure")
	}
	return nil, fmt.Errorf("%w: %q", stream.ErrUnknownReport, name)
}

func (failingReporter) Stats() stream.Stats { return stream.Stats{} }

// TestStatsHandlerSeriesResolvedOnce pins what resolving the metric
// handles in newMux must not change: the stats body and the /metrics
// exposition before and after a burst of requests are byte-identical
// apart from the request series the burst itself moves — no series
// appears, disappears or forks from the registry's — those move by
// exactly the requests made, the handles stay live (a later rejection or
// lag update shows in the next body), and the handler's allocations stay
// under the figure that going back through the registry's get-or-create
// for its nineteen lookups would exceed.
func TestStatsHandlerSeriesResolvedOnce(t *testing.T) {
	reg := metrics.New()
	rejected := reg.Counter(zeek.RejectMetric, "", "file", "ssl", "reason", string(zeek.RejectFieldCount))
	rejected.Add(3)
	lag := reg.Gauge("tail_lag_bytes", "", "file", "ssl")
	lag.Set(128)
	reg.Counter(tailErrMetric, tailErrHelp, "file", "x509.log").Inc()
	mux := newMux(failingReporter{}, reg, testLogger(t), false, daemonInfo{role: "monitor"})

	get := func(path string, want int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d", path, rec.Code, want)
		}
		return rec.Body.String()
	}
	// exposition splits /metrics into the request series a burst moves and
	// everything else.
	exposition := func() (rest string, requests map[string]string) {
		requests = map[string]string{}
		var sb strings.Builder
		for _, line := range strings.SplitAfter(get("/metrics", 200), "\n") {
			if strings.HasPrefix(line, "mtlsd_http_request") {
				series, value, _ := strings.Cut(strings.TrimSpace(line), " ")
				requests[series] = value
				continue
			}
			sb.WriteString(line)
		}
		return sb.String(), requests
	}
	const stats, missing = "/api/v1/stats", "/api/v1/reports/nope"
	statsOK := `mtlsd_http_requests_total{path="/api/v1/stats",code="200"}`
	reports404 := `mtlsd_http_requests_total{path="/api/v1/reports/",code="404"}`

	get(missing, 404)
	body0 := get(stats, 200)
	rest0, req0 := exposition()
	for i := 0; i < 50; i++ {
		get(stats, 200)
	}
	for i := 0; i < 20; i++ {
		get(missing, 404)
	}
	body1 := get(stats, 200)
	rest1, req1 := exposition()

	if body0 != body1 {
		t.Errorf("stats body changed across a burst of requests:\n%s\n--- after ---\n%s", body0, body1)
	}
	for _, want := range []string{`"RowsRejected": 3`, `"ssl/field_count": 3`, `"TailErrors": 1`, `"ssl": 128`, `"x509": 0`} {
		if !strings.Contains(body0, want) {
			t.Errorf("stats body lacks %s:\n%s", want, body0)
		}
	}
	if rest0 != rest1 {
		t.Errorf("/metrics outside the request series changed across a burst:\n%s\n--- after ---\n%s", rest0, rest1)
	}
	if len(req0) != len(req1) {
		t.Errorf("the burst changed the set of request series: %d before, %d after", len(req0), len(req1))
	}
	if req0[statsOK] != "1" || req1[statsOK] != "52" || req0[reports404] != "1" || req1[reports404] != "21" {
		t.Errorf("request counters %s -> %s (want 1 -> 52), %s -> %s (want 1 -> 21)",
			req0[statsOK], req1[statsOK], req0[reports404], req1[reports404])
	}
	if n := reg.Counter("mtlsd_http_requests_total", "", "path", stats, "code", "200").Value(); n != 52 {
		t.Errorf("the registry's own stats counter reads %d, want the handler's 52", n)
	}

	rejected.Add(2)
	lag.Set(7)
	if body := get(stats, 200); !strings.Contains(body, `"RowsRejected": 5`) || !strings.Contains(body, `"ssl": 7`) {
		t.Errorf("stats body does not follow the series it reads:\n%s", body)
	}

	if race.Enabled {
		return // allocation counts under the race detector pin its internals
	}
	req := httptest.NewRequest(http.MethodGet, stats, nil)
	allocs := testing.AllocsPerRun(200, func() { mux.ServeHTTP(httptest.NewRecorder(), req) })
	t.Logf("stats handler: %.0f allocs per request", allocs)
	if allocs > statsHandlerAllocs {
		t.Errorf("stats handler allocates %.0f per request, want at most %d", allocs, statsHandlerAllocs)
	}
}

// statsHandlerAllocs bounds one /api/v1/stats request through the mux
// with a recorder: measured 35 with the handles resolved once, 107 when
// each request went through the registry.
const statsHandlerAllocs = 60

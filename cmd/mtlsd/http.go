package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	mtls "repro"
	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// reporter is the slice of the engine the HTTP layer needs; tests
// substitute failing stubs to exercise the error mapping.
type reporter interface {
	Report(name string) (any, error)
	Stats() stream.Stats
}

// daemonInfo is the deployment identity newMux folds into /api/v1/version
// and /api/v1/stats: which role this process plays, the snapshot handler
// to mount (sensor role), and the aggregator whose per-sensor sync state
// the stats should carry.
type daemonInfo struct {
	role   string
	sensor *distrib.Sensor
	agg    *distrib.Aggregator
}

// versionInfo is the /api/v1/version payload: the facade's build
// identity plus this daemon's role.
type versionInfo struct {
	mtls.Info
	Role string `json:"role"`
}

// daemonStats is the /api/v1/stats payload: the engine counters plus the
// ingestion-health counters owned by the daemon. Embedding keeps the
// JSON shape a strict superset of stream.Stats.
type daemonStats struct {
	stream.Stats
	Role             string                 // monitor, sensor, or aggregator
	Sensors          []distrib.SensorStatus `json:",omitempty"` // per-sensor sync state (aggregator role)
	RowsRejected     uint64                 // malformed log rows quarantined
	RejectedByReason map[string]uint64      `json:",omitempty"` // "file/reason" -> count
	TailErrors       uint64                 // tail polls that returned an error
	TailLag          map[string]int64       `json:",omitempty"` // file -> size − offset after the last poll
}

// newMux assembles the daemon's routes under /api/v1 with per-endpoint
// request counters and latency histograms; failures are a JSON envelope
// {"error", "code"}. The reports handler distinguishes an unknown report
// name (404, a client mistake) from a materialization failure (500, our
// bug). Every series a handler reads or bumps per request is resolved
// here, once, the reject counters sorted by key as JSON sorts map keys:
// the stats endpoint is probed hundreds of times a second, and the
// registry's get-or-create renders labels under a mutex. The stats body
// is appended by appendStats into a pooled buffer, the bytes encoding/json
// would write for daemonStats, with no reflection and no per-request map;
// encoding/json writes it only where appendStats cannot (a time or float
// encoding/json refuses).
func newMux(eng reporter, reg *metrics.Registry, logger *slog.Logger, withPprof bool, info daemonInfo) *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, instrument(reg, path, h))
	}
	rejects := zeek.ResolveRejectCounters(reg)
	tailErrs := []*metrics.Counter{
		reg.Counter(tailErrMetric, tailErrHelp, "file", "ssl.log"),
		reg.Counter(tailErrMetric, tailErrHelp, "file", "x509.log"),
	}
	// An aggregator tails nothing and exposes no lag.
	var lag []tailLagGauge
	if info.agg == nil {
		for _, f := range []string{"ssl", "x509"} {
			lag = append(lag, tailLagGauge{f, reg.Gauge("tail_lag_bytes",
				"file size minus consumed offset after a poll", "file", f)})
		}
	}
	handle("/api/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handle("/api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, versionInfo{Info: mtls.BuildInfo("mtlsd"), Role: info.role})
	})
	handle("/api/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		buf := statsBufs.Get().(*statsBuf)
		rd := &buf.r
		rd.ds = daemonStats{Stats: eng.Stats(), Role: info.role}
		rd.rejects, rd.ds.RowsRejected = rejects.AppendNonzero(rd.rejects[:0])
		for _, c := range tailErrs {
			rd.ds.TailErrors += c.Value()
		}
		if info.agg != nil {
			rd.ds.Sensors = info.agg.SensorStatuses()
		}
		// Read back so a load harness can wait for drain from the stats
		// instead of parsing the /metrics exposition.
		rd.lag = rd.lag[:0]
		for _, l := range lag {
			rd.lag = append(rd.lag, lagReading{l.file, int64(l.g.Value())})
		}
		var ok bool
		if buf.b, ok = appendStats(buf.b[:0], rd); ok {
			w.Header()["Content-Type"] = jsonContentType
			w.Write(buf.b) //nolint:errcheck // the client went away
		} else {
			writeJSON(w, rd.body())
		}
		rd.ds.Sensors = nil
		statsBufs.Put(buf)
	})
	reports := func(w http.ResponseWriter, r *http.Request) {
		name := strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/v1/reports"), "/")
		if name == "" {
			writeJSON(w, stream.ReportNames())
			return
		}
		out, err := eng.Report(name)
		switch {
		case errors.Is(err, stream.ErrUnknownReport):
			writeError(w, http.StatusNotFound, err.Error())
		case err != nil:
			logger.Error("materialize report", "name", name, "err", err)
			writeError(w, http.StatusInternalServerError, err.Error())
		default:
			writeJSON(w, out)
		}
	}
	handle("/api/v1/reports", reports)
	handle("/api/v1/reports/", reports)
	if info.sensor != nil {
		handle("/api/v1/snapshot", info.sensor.Handler())
	}
	// /metrics is served unwrapped: scraping must stay readable even
	// while it mutates the HTTP series it would otherwise self-count.
	mux.Handle("/metrics", metrics.Handler(reg))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statsBuf is one /api/v1/stats request's scratch: the reading and the
// body it is appended into, pooled so a poll allocates neither.
type statsBuf struct {
	r statsReading
	b []byte
}

var statsBufs = sync.Pool{New: func() any { return new(statsBuf) }}

// jsonContentType is the stats body's Content-Type header value, shared so
// setting it allocates nothing; net/http only reads it.
var jsonContentType = []string{"application/json"}

// tailLagGauge is one log's ingestion-lag gauge (file size minus consumed
// offset after the last poll), as the tailer publishes it.
type tailLagGauge struct {
	file string
	g    *metrics.Gauge
}

// instrument wraps a handler with a per-endpoint latency histogram and a
// per-endpoint, per-status request counter. The 200 counter is resolved
// up front, any other status on its first use.
func instrument(reg *metrics.Registry, path string, h http.HandlerFunc) http.HandlerFunc {
	dur := reg.Histogram("mtlsd_http_request_seconds", "HTTP request handling latency", nil, "path", path)
	requests := func(code int) *metrics.Counter {
		return reg.Counter("mtlsd_http_requests_total", "HTTP requests served",
			"path", path, "code", strconv.Itoa(code))
	}
	ok := requests(http.StatusOK)
	var mu sync.Mutex
	other := make(map[int]*metrics.Counter)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur.Since(t0)
		if sw.code == http.StatusOK {
			ok.Inc()
			return
		}
		mu.Lock()
		c := other[sw.code]
		if c == nil {
			c = requests(sw.code)
			other[sw.code] = c
		}
		mu.Unlock()
		c.Inc()
	}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the server's writer, so a
// handler streaming through instrument (a followed snapshot stream) can
// flush.
func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// apiError is the /api/v1 failure envelope.
type apiError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// writeError emits the JSON error envelope with the matching status.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code}) //nolint:errcheck // headers are already out
}

// runtimeSeries are the Go runtime's cumulative allocation and GC counts
// /metrics exports: divided by tail_rows_total they are the daemon's
// per-row work, a count a shared host's noise does not move the way it
// moves CPU time.
var runtimeSeries = []struct{ name, help, sample string }{
	{"go_gc_heap_allocs_objects_total", "heap objects allocated since start (runtime/metrics /gc/heap/allocs:objects)", "/gc/heap/allocs:objects"},
	{"go_gc_heap_allocs_bytes_total", "heap bytes allocated since start (runtime/metrics /gc/heap/allocs:bytes)", "/gc/heap/allocs:bytes"},
	{"go_gc_cycles_total", "completed GC cycles since start (runtime/metrics /gc/cycles/total:gc-cycles)", "/gc/cycles/total:gc-cycles"},
}

// runtimeCounters registers runtimeSeries, each read from runtime/metrics
// when /metrics is scraped.
func runtimeCounters(reg *metrics.Registry) {
	for _, rs := range runtimeSeries {
		name := rs.sample
		reg.CounterFunc(rs.name, rs.help, func() uint64 {
			s := []rtmetrics.Sample{{Name: name}}
			rtmetrics.Read(s)
			if s[0].Value.Kind() != rtmetrics.KindUint64 {
				return 0
			}
			return s[0].Value.Uint64()
		})
	}
}

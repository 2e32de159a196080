package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// encodeStats is the reference appendStats is held to: the body as
// writeJSON's encoder writes it.
func encodeStats(ds daemonStats) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(ds)
	return buf.Bytes(), err
}

// readingOf is what the handler reads for the body ds: ds without its
// maps, their contents as key-sorted pairs.
func readingOf(ds daemonStats) *statsReading {
	r := &statsReading{ds: ds}
	r.ds.RejectedByReason, r.ds.TailLag = nil, nil
	for k, v := range ds.RejectedByReason {
		r.rejects = append(r.rejects, zeek.RejectCount{Key: k, N: v})
	}
	sort.Slice(r.rejects, func(i, j int) bool { return r.rejects[i].Key < r.rejects[j].Key })
	for k, v := range ds.TailLag {
		r.lag = append(r.lag, lagReading{k, v})
	}
	sort.Slice(r.lag, func(i, j int) bool { return r.lag[i].file < r.lag[j].file })
	return r
}

// checkStatsBody holds appendStats to encoding/json on ds: the same bytes
// where encoding/json succeeds, a refusal where it fails.
func checkStatsBody(t testing.TB, ds daemonStats) {
	t.Helper()
	want, err := encodeStats(ds)
	got, ok := appendStats(nil, readingOf(ds))
	switch {
	case err != nil && ok:
		t.Fatalf("encoding/json fails (%v) but appendStats wrote:\n%s", err, got)
	case err == nil && !ok:
		t.Fatalf("appendStats refused a body encoding/json writes:\n%s", want)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("appendStats differs from encoding/json:\n%s\n--- encoding/json ---\n%s", got, want)
	}
}

// statsFill holds the values fill cycles through, chosen for the cases
// where a hand-written encoder can part from encoding/json.
var statsFill = struct {
	strs   []string
	floats []float64
	ints   []int64
	times  []time.Time
}{
	strs: []string{
		"monitor", "", "<script>alert('x')</script> & more", "ünïcødé ☃ 日本",
		"line sep para", `"quoted" \back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\xff\xfe bad \xc3 utf8", "http://sensor-a:8411/api?a=1&b=<2>", "ssl/field_count",
	},
	floats: []float64{
		1.5, 0, 1e-7, -2.5e-9, 1e21, -3.4e22, 123456789.125, 5e-324,
		math.MaxFloat64, 1e-6, 999999999999999999999, 0.1, -0,
	},
	ints: []int64{1, 0, -1, math.MaxInt64, math.MinInt64, 42, 1 << 40},
	times: []time.Time{
		time.Date(2024, 3, 5, 6, 7, 8, 123456789, time.UTC),
		{},
		time.Date(2023, 12, 31, 23, 59, 59, 0, time.FixedZone("IST", 5*3600+30*60)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -8*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 1000, time.UTC),
		time.Date(2022, 6, 1, 0, 0, 0, 500, time.FixedZone("", 23*3600+59*60)),
		time.Unix(1700000000, 0).Local(),
	},
}

// fill sets every exported field of v, recursing into embedded structs
// and slices of structs, from statsFill rotated by *k. A field of a type
// it does not know fails the test: teach fill and appendStats.
func fill(t testing.TB, v reflect.Value, k *int) {
	t.Helper()
	vt := v.Type()
	for i := 0; i < vt.NumField(); i++ {
		sf, fv := vt.Field(i), v.Field(i)
		if !sf.IsExported() {
			continue
		}
		*k++
		n := *k
		switch {
		case sf.Type == reflect.TypeOf(time.Time{}):
			fv.Set(reflect.ValueOf(statsFill.times[n%len(statsFill.times)]))
		case sf.Anonymous && fv.Kind() == reflect.Struct:
			fill(t, fv, k)
		default:
			switch fv.Kind() {
			case reflect.String:
				fv.SetString(statsFill.strs[n%len(statsFill.strs)])
			case reflect.Bool:
				fv.SetBool(n%2 == 0)
			case reflect.Int, reflect.Int64:
				fv.SetInt(statsFill.ints[n%len(statsFill.ints)])
			case reflect.Uint64:
				fv.SetUint(uint64(statsFill.ints[n%len(statsFill.ints)]))
			case reflect.Float64:
				fv.SetFloat(statsFill.floats[n%len(statsFill.floats)])
			case reflect.Slice:
				if fv.Type().Elem().Kind() != reflect.Struct {
					t.Fatalf("field %s: slice of %s", sf.Name, fv.Type().Elem())
				}
				s := reflect.MakeSlice(fv.Type(), n%3, n%3)
				for j := 0; j < s.Len(); j++ {
					fill(t, s.Index(j), k)
				}
				fv.Set(s)
			case reflect.Map:
				if fv.Type().Key().Kind() != reflect.String {
					t.Fatalf("field %s: map keyed by %s", sf.Name, fv.Type().Key())
				}
				m := reflect.MakeMap(fv.Type())
				for j := 0; j < n%4; j++ {
					key := statsFill.strs[(n+3*j)%len(statsFill.strs)]
					val := reflect.New(fv.Type().Elem()).Elem()
					switch val.Kind() {
					case reflect.Uint64:
						val.SetUint(uint64(statsFill.ints[(n+j)%len(statsFill.ints)]))
					case reflect.Int64:
						val.SetInt(statsFill.ints[(n+j)%len(statsFill.ints)])
					default:
						t.Fatalf("field %s: map of %s", sf.Name, val.Type())
					}
					m.SetMapIndex(reflect.ValueOf(key), val)
				}
				fv.Set(m)
			default:
				t.Fatalf("field %s has kind %s: teach fill and appendStats", sf.Name, fv.Kind())
			}
		}
	}
}

// TestStatsBodyMatchesEncodingJSON holds appendStats to encoding/json
// byte for byte over bodies whose every exported field — of daemonStats,
// the stream.Stats it embeds and each distrib.SensorStatus — is set by
// reflection, rotating through HTML-special, non-ASCII and invalid UTF-8
// strings, floats in and out of exponent form, zero and non-UTC times,
// and empty, one- and many-entry sensors and maps. A field added to any
// of the three shows here until the encoder writes it. Bodies
// encoding/json refuses must be refused too, and the handler serves the
// same bytes as the body it read, built the way it once was.
func TestStatsBodyMatchesEncodingJSON(t *testing.T) {
	checkStatsBody(t, daemonStats{})
	for k := 0; k < 60; k++ {
		var ds daemonStats
		n := k
		fill(t, reflect.ValueOf(&ds).Elem(), &n)
		checkStatsBody(t, ds)
	}

	refused := map[string]func(*daemonStats){
		"year 10000":      func(ds *daemonStats) { ds.Watermark = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"year -1":         func(ds *daemonStats) { ds.LastCheckpoint = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"zone 24h":        func(ds *daemonStats) { ds.Watermark = time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)) },
		"zone 100h":       func(ds *daemonStats) { ds.Watermark = time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)) },
		"NaN age":         func(ds *daemonStats) { ds.CheckpointAge = math.NaN() },
		"+Inf age":        func(ds *daemonStats) { ds.CheckpointAge = math.Inf(1) },
		"sensor -Inf age": func(ds *daemonStats) { ds.Sensors = []distrib.SensorStatus{{}, {LastSyncAge: math.Inf(-1)}} },
		"sensor sync 10k": func(ds *daemonStats) {
			ds.Sensors = []distrib.SensorStatus{{LastSync: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}
		},
		"sensor zone -25h": func(ds *daemonStats) {
			ds.Sensors = []distrib.SensorStatus{{LastSync: time.Unix(0, 0).In(time.FixedZone("", -25*3600))}}
		},
	}
	for name, breakBody := range refused {
		var ds daemonStats
		breakBody(&ds)
		if _, err := encodeStats(ds); err == nil {
			t.Errorf("%s: encoding/json writes it; the case shows no refusal", name)
		}
		checkStatsBody(t, ds)
	}

	// Through the mux: the body the handler reads from live counters and
	// gauges is the one the handler wrote with maps and encoding/json.
	reg := metrics.New()
	for i, reason := range zeek.Reasons {
		if i%2 == 0 {
			reg.Counter(zeek.RejectMetric, "", "file", "ssl", "reason", string(reason)).Add(uint64(i + 1))
		} else {
			reg.Counter(zeek.RejectMetric, "", "file", "x509", "reason", string(reason)).Add(uint64(10 * i))
		}
	}
	reg.Gauge("tail_lag_bytes", "", "file", "x509").Set(4096)
	reg.Counter(tailErrMetric, tailErrHelp, "file", "ssl.log").Add(2)
	var st daemonStats
	n := 3
	fill(t, reflect.ValueOf(&st.Stats).Elem(), &n)
	mux := newMux(statsReporter{st.Stats}, reg, testLogger(t), false, daemonInfo{role: "sensor"})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	total, byReason := zeek.RejectTotals(reg)
	want, err := encodeStats(daemonStats{
		Stats: st.Stats, Role: "sensor", RowsRejected: total, RejectedByReason: byReason,
		TailErrors: 2, TailLag: map[string]int64{"ssl": 0, "x509": 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("stats handler body:\n%s\n--- encoding/json ---\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}

	// Where encoding/json refuses the body, the handler answers what
	// encoding/json answers: a 500 naming the refusal.
	mux = newMux(statsReporter{stream.Stats{CheckpointAge: math.NaN()}}, metrics.New(), testLogger(t), false, daemonInfo{role: "monitor"})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if body := rec.Body.String(); rec.Code != http.StatusInternalServerError || !strings.Contains(body, "unsupported value: NaN") {
		t.Errorf("a NaN in the stats: %d %q, want 500 naming the NaN", rec.Code, body)
	}

	// An aggregator's body carries its sensors and no lag.
	agg, err := distrib.NewAggregator(distrib.Config{Input: &core.Input{}, Sensors: []string{"http://127.0.0.1:1", "http://[::1]:2/<a&b>"}})
	if err != nil {
		t.Fatal(err)
	}
	mux = newMux(agg, metrics.New(), testLogger(t), false, daemonInfo{role: "aggregator", agg: agg})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	want, err = encodeStats(daemonStats{Stats: agg.Stats(), Role: "aggregator", Sensors: agg.SensorStatuses(), RejectedByReason: map[string]uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("aggregator stats body:\n%s\n--- encoding/json ---\n%s", got, want)
	}
}

// statsReporter serves fixed engine stats.
type statsReporter struct{ st stream.Stats }

func (s statsReporter) Report(string) (any, error) { return nil, stream.ErrUnknownReport }
func (s statsReporter) Stats() stream.Stats        { return s.st }

// FuzzStatsBody holds appendStats to encoding/json on bodies built from
// fuzzed strings, counts, floats, instants and zone offsets.
func FuzzStatsBody(f *testing.F) {
	f.Add("monitor", "http://a:1/", "ssl/port", uint64(3), 1.5, int64(1700000000), int64(0), 0)
	f.Add("<&>", " \xff", "", uint64(math.MaxUint64), 1e-7, int64(-62135596800), int64(999999999), 19800)
	f.Add("", "", "x", uint64(0), math.Inf(1), int64(253402300800), int64(1), -86400)
	f.Fuzz(func(t *testing.T, role, url, key string, n uint64, age float64, sec, nsec int64, zone int) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", zone))
		ds := daemonStats{
			Stats: stream.Stats{
				ConnsIngested: n, Retained: int(n), Dirty: n%2 == 1,
				Watermark: at, LastCheckpoint: at.UTC(), CheckpointAge: age,
			},
			Role: role,
			Sensors: []distrib.SensorStatus{
				{URL: url, LastError: role + key, Epoch: n, LastSync: at, LastSyncAge: -age},
				{URL: key},
			},
			RowsRejected:     n,
			RejectedByReason: map[string]uint64{key: n, url: 1},
			TailErrors:       n,
			TailLag:          map[string]int64{key: int64(n), role: -1},
		}
		checkStatsBody(t, ds)
	})
}

// discardWriter keeps one header map across requests and drops the body,
// so a measurement through the mux counts the handler, not a recorder.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkStatsHandler is one /api/v1/stats request through the mux on a
// monitor with rejected rows and tail lag to report.
func BenchmarkStatsHandler(b *testing.B) {
	reg := metrics.New()
	reg.Counter(zeek.RejectMetric, "", "file", "ssl", "reason", string(zeek.RejectFieldCount)).Add(3)
	reg.Counter(zeek.RejectMetric, "", "file", "x509", "reason", string(zeek.RejectKeyLength)).Add(1)
	reg.Gauge("tail_lag_bytes", "", "file", "ssl").Set(128)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	mux := newMux(failingReporter{}, reg, logger, false, daemonInfo{role: "monitor"})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.ServeHTTP(w, req)
	}
}

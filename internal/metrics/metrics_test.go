package metrics

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("events_total", "events seen")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same series, same instrument.
	if again := r.Counter("events_total", "events seen"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Distinct labels, distinct instrument.
	if other := r.Counter("events_total", "events seen", "kind", "x"); other == c {
		t.Fatal("labeled series aliased the unlabeled one")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	r.GaugeFunc("derived", "callback gauge", func() float64 { return 42 })
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "derived 42\n") {
		t.Fatalf("callback gauge missing:\n%s", buf.String())
	}

	n := uint64(6)
	r.CounterFunc("read_total", "callback counter", func() uint64 { n++; return n })
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE read_total counter\nread_total 7\n") {
		t.Fatalf("callback counter missing:\n%s", buf.String())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Fatalf("sum = %v, want 5.565", h.Sum())
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 0.005 and 0.01 land in le="0.01" (le is inclusive), cumulative after.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("tail_rotations_total", "log rotations observed", "file", "ssl").Inc()
	r.Gauge("tail_lag_bytes", "size minus offset", "file", "ssl").Set(128)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP tail_lag_bytes size minus offset\n",
		"# TYPE tail_lag_bytes gauge\n",
		"tail_lag_bytes{file=\"ssl\"} 128\n",
		"# TYPE tail_rotations_total counter\n",
		"tail_rotations_total{file=\"ssl\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two renders are identical.
	var buf2 strings.Builder
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Error("exposition output is not deterministic")
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Counter("c_total", "c").Add(3)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out["c_total"].(float64) != 3 {
		t.Errorf("c_total = %v", out["c_total"])
	}
	h := out["h_seconds"].(map[string]any)
	if h["count"].(float64) != 1 || h["sum"].(float64) != 0.5 {
		t.Errorf("histogram json = %v", h)
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res := httptest.NewRecorder()
	Handler(r).ServeHTTP(res, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(res.Body.String(), "hits_total 1") {
		t.Errorf("text body: %s", res.Body.String())
	}

	res = httptest.NewRecorder()
	Handler(r).ServeHTTP(res, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := res.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content-type: %s", ct)
	}
	var out map[string]any
	if err := json.Unmarshal(res.Body.Bytes(), &out); err != nil {
		t.Fatalf("json body: %v", err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestConcurrentUse exercises every instrument from many goroutines —
// including get-or-create of a series no one registered up front, the
// way HTTP handlers register per-status counters on first use;
// meaningful under -race, and the final counts must still add up.
func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				r.Counter("late_total", "registered on first use", "i", strconv.Itoa(i)).Inc()
				var buf strings.Builder
				if i%250 == 0 {
					r.WritePrometheus(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	for i := 0; i < per; i++ {
		if late := r.Counter("late_total", "registered on first use", "i", strconv.Itoa(i)).Value(); late != workers {
			t.Fatalf("counter %d registered on first use = %d, want %d (racing creators kept different instruments)", i, late, workers)
		}
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

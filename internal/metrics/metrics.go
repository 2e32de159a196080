// Package metrics is a dependency-free instrumentation substrate for the
// long-running pieces of the reproduction: atomic counters, gauges, and
// fixed-bucket latency histograms collected in a Registry that renders
// itself in the Prometheus text exposition format (for scraping
// mtlsd's /metrics) or as one JSON document (for ad-hoc inspection and
// tests). The streaming engine, the log tailers, and the daemon's HTTP
// layer all publish here, so a 23-month deployment can watch ingestion
// lag, drops, and rebuild churn instead of discovering data loss months
// later.
//
// Design constraints, in order: no third-party dependencies, safe for
// concurrent use on the ingest hot path (one atomic op per event), and
// nil-tolerant instruments — methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, so optionally-instrumented code (a tailer
// without a registry attached) pays no conditionals at call sites.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout: 100µs to 10s in
// roughly 2.5× steps, the span between a cached map lookup and a full
// derived-state rebuild at production scale.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter discards all operations. A Counter registered
// via CounterFunc reads its value from the callback instead.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. A nil *Gauge discards all
// operations. A Gauge registered via GaugeFunc reads its value from the
// callback instead.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (the callback's result for a
// GaugeFunc-backed gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition time, as Prometheus expects) and tracks their sum. The
// bucket layout is immutable after registration. A nil *Histogram
// discards all operations.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Since observes the elapsed wall time from t0 in seconds — the one-line
// idiom for timing a code path: defer h.Since(time.Now()).
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its type and help string, shared by every
// labeled series under it.
type family struct {
	kind metricKind
	help string
}

// series is one (name, labels) instrument.
type series struct {
	name   string
	labels string // rendered `k="v",k2="v2"`, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (s *series) id() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// Registry collects instruments. Registration is get-or-create: asking
// for the same (name, labels) again returns the existing instrument, so
// lazily instrumented paths (per-endpoint HTTP series) need no
// bookkeeping. Registering one name with two different types panics —
// that is a programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	series   map[string]*series
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		families: make(map[string]*family),
		series:   make(map[string]*series),
	}
}

// renderLabels turns alternating key/value pairs into the Prometheus
// label body `k="v",...`, escaping backslash, quote, and newline.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	return b.String()
}

// lookup get-or-creates the series for (name, labels), enforcing one
// kind per family.
func (r *Registry) lookup(name, help string, kind metricKind, kv []string, create func(*series)) *series {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{kind: kind, help: help}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, fam.kind, kind))
	}
	id := name
	if labels != "" {
		id = name + "{" + labels + "}"
	}
	s, ok := r.series[id]
	if !ok {
		// The instrument is created under the lock, before the series is
		// published: get-or-create is called from concurrent goroutines
		// (HTTP handlers register per-status counters on first use), and
		// two racing creators would each keep a different instrument.
		s = &series{name: name, labels: labels}
		create(s)
		r.series[id] = s
	}
	return s
}

// Counter get-or-creates a counter. labels are alternating key/value
// pairs, e.g. Counter("tail_rotations_total", "...", "file", "ssl").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, labels, func(s *series) { s.c = &Counter{} }).c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for totals something else already keeps, like the
// Go runtime's. fn must be safe to call concurrently and never decrease.
// If the series already exists its callback is left in place.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.lookup(name, help, kindCounter, labels, func(s *series) { s.c = &Counter{fn: fn} })
}

// Gauge get-or-creates a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func(s *series) { s.g = &Gauge{} }).g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — for quantities that are already tracked elsewhere, like channel
// occupancy. fn must be safe to call concurrently. If the series already
// exists its callback is left in place (get-or-create symmetry).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, kindGauge, labels, func(s *series) { s.g = &Gauge{fn: fn} })
}

// Histogram get-or-creates a histogram with the given bucket upper
// bounds (nil means DefBuckets). Bounds must be ascending; they are
// fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if bounds == nil {
			bounds = DefBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		s.h = h
	}).h
}

// snapshot returns the series sorted by (name, labels) for deterministic
// exposition.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE pair per family, counters
// and gauges as single samples, histograms as cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	var lastFam string
	r.mu.Lock()
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		fams[n] = f
	}
	r.mu.Unlock()
	for _, s := range r.snapshot() {
		if s.name != lastFam {
			fam := fams[s.name]
			fmt.Fprintf(&b, "# HELP %s %s\n", s.name, fam.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, fam.kind)
			lastFam = s.name
		}
		switch {
		case s.c != nil:
			fmt.Fprintf(&b, "%s %s\n", s.id(), strconv.FormatUint(s.c.Value(), 10))
		case s.g != nil:
			fmt.Fprintf(&b, "%s %s\n", s.id(), formatFloat(s.g.Value()))
		case s.h != nil:
			h := s.h
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s %d\n", seriesID(s.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(bound)+`"`)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s %d\n", seriesID(s.name+"_bucket", joinLabels(s.labels, `le="+Inf"`)), cum)
			fmt.Fprintf(&b, "%s %s\n", seriesID(s.name+"_sum", s.labels), formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", seriesID(s.name+"_count", s.labels), h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// joinLabels appends extra to a rendered label body.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// seriesID renders `name{labels}`, eliding empty braces.
func seriesID(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// WriteJSON renders every series as one JSON object keyed by series id:
// counters and gauges map to numbers, histograms to
// {count, sum, buckets:{le:count}} with cumulative bucket counts.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, s := range r.snapshot() {
		switch {
		case s.c != nil:
			out[s.id()] = s.c.Value()
		case s.g != nil:
			out[s.id()] = s.g.Value()
		case s.h != nil:
			h := s.h
			buckets := make(map[string]uint64, len(h.bounds)+1)
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				buckets[formatFloat(bound)] = cum
			}
			cum += h.counts[len(h.bounds)].Load()
			buckets["+Inf"] = cum
			out[s.id()] = map[string]any{
				"count":   h.Count(),
				"sum":     h.Sum(),
				"buckets": buckets,
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the registry over HTTP: Prometheus text by default,
// JSON when the request asks for it (?format=json or an Accept header
// preferring application/json).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

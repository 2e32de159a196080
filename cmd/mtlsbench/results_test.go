package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeResults builds a results set with one end-to-end metric on one
// workload.
func fakeResults(metric string, values ...float64) *results {
	r := &results{Schema: resultsSchema}
	for i, v := range values {
		r.Runs = append(r.Runs, &record{Workload: "steady", Seed: uint64(i), Correct: true,
			Metrics: map[string]float64{metric: v}})
	}
	return r
}

func only(t *testing.T, vs []verdict) verdict {
	t.Helper()
	if len(vs) != 1 {
		t.Fatalf("want one verdict, got %d: %+v", len(vs), vs)
	}
	return vs[0]
}

func TestCompareVerdicts(t *testing.T) {
	const m, bound = "latency_ms", 0.10
	defs := []metricDef{{Name: m, Unit: "ms", Better: "lower", Bound: bound}}
	compareResults := func(old, new *results) []verdict { return compareResults(defs, old, new) }
	base := fakeResults(m, 30, 30.2, 29.8, 30.1, 29.9)

	same := only(t, compareResults(base, fakeResults(m, 30.3, 30, 29.7, 30.2, 30.1)))
	if same.Verdict != "ok" {
		t.Errorf("unchanged metric judged %q", same.Verdict)
	}

	worse := 30 * (1 + 2*bound)
	reg := only(t, compareResults(base, fakeResults(m, worse, worse+0.1, worse-0.1, worse, worse)))
	if reg.Verdict != "regress" || reg.Delta < bound {
		t.Errorf("median %.1f against 30 judged %q (delta %.3f, bound %.2f)", worse, reg.Verdict, reg.Delta, bound)
	}

	better := only(t, compareResults(base, fakeResults(m, 20, 20.1, 19.9, 20, 20)))
	if better.Verdict != "ok" || better.Delta >= 0 {
		t.Errorf("improvement judged %q, delta %.3f", better.Verdict, better.Delta)
	}

	// Spread wider than the bound and overlapping runs: not resolvable.
	noisy := only(t, compareResults(base, fakeResults(m, 20, 45, 25, 40, 31)))
	if noisy.Verdict != "unresolved" {
		t.Errorf("spread %.2f over bound %.2f judged %q", noisy.Spread, bound, noisy.Verdict)
	}
	// …unless every new run beats every old run.
	clear := only(t, compareResults(base, fakeResults(m, 5, 15, 8, 12, 20)))
	if clear.Verdict != "ok" {
		t.Errorf("noisy but strictly better judged %q", clear.Verdict)
	}
}

// TestSetupIsJudgedOnItsMedianOnly: setup_s is exempt from the spread
// rule, as in the benchmark contract.
func TestSetupIsJudgedOnItsMedianOnly(t *testing.T) {
	defs := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}
	old := fakeResults("setup_s", 0.20, 0.30, 0.24, 0.35, 0.22)
	v := only(t, compareResults(defs, old, fakeResults("setup_s", 0.21, 0.33, 0.25, 0.30, 0.23)))
	if v.Spread <= v.Bound || v.Verdict != "ok" {
		t.Errorf("noisy but unchanged setup_s: spread %.2f, verdict %q", v.Spread, v.Verdict)
	}
	v = only(t, compareResults(defs, old, fakeResults("setup_s", 0.40, 0.50, 0.44, 0.55, 0.42)))
	if v.Verdict != "regress" {
		t.Errorf("setup_s median 0.24 → 0.44 judged %q", v.Verdict)
	}
}

func TestCompareHigherIsBetter(t *testing.T) {
	const m = "rows_per_s"
	defs := []metricDef{{Name: m, Unit: "rows/s", Better: "higher", Bound: 0.10}}
	compareResults := func(old, new *results) []verdict { return compareResults(defs, old, new) }
	base := fakeResults(m, 1000, 1001, 999, 1000, 1002)
	v := only(t, compareResults(base, fakeResults(m, 500, 501, 499, 500, 502)))
	if v.Verdict != "regress" || v.Delta <= 0 {
		t.Errorf("halved throughput judged %q, worse-by %.3f", v.Verdict, v.Delta)
	}
	v = only(t, compareResults(base, fakeResults(m, 2000, 2001, 1999, 2000, 2002)))
	if v.Verdict != "ok" || v.Delta >= 0 {
		t.Errorf("doubled throughput judged %q, worse-by %.3f", v.Verdict, v.Delta)
	}
}

func TestInvalidAndTracedRunsAreNotCompared(t *testing.T) {
	r := fakeResults("freshness_p50_ms", 30, 31)
	r.Runs = append(r.Runs,
		&record{Workload: "steady", Invalid: true, Metrics: map[string]float64{"freshness_p50_ms": 900}},
		&record{Workload: "steady", Trace: true, Metrics: map[string]float64{"freshness_p50_ms": 900}})
	if xs := r.values("steady", "freshness_p50_ms", false); len(xs) != 2 {
		t.Errorf("values = %v, want the two valid untraced runs", xs)
	}
}

func TestResultsRoundTripAndSchemaCheck(t *testing.T) {
	dir := t.TempDir()
	r := fakeResults("freshness_p50_ms", 30)
	r.Host = host()
	path := filepath.Join(dir, "sub", "r.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Host != r.Host || len(back.Runs) != 1 || back.Runs[0].Metrics["freshness_p50_ms"] != 30 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"something-else/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(path); err == nil {
		t.Error("a foreign schema was accepted")
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json at the
// repository root to this package's catalogue: same workloads, same
// metrics, units, directions and bounds, and the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, catalogue %v (must be in (0, 0.25])", kind, m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, m.Name)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: name or unit over the contract's length limit", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the live window the
// bounds were calibrated at.
const defaultSeconds = 8

// maxGenLateMs marks a run invalid: when the writer itself was this late
// at the 95th percentile the harness, not the daemon, set the freshness
// figures.
const maxGenLateMs = 25.0

// record is one run of one workload.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	SpecHash string  `json:"spec_hash"`
	// ProbeGapMs is the prober's sleep between stats responses: freshness
	// cannot resolve finer than this plus one round trip.
	ProbeGapMs float64 `json:"probe_gap_ms"`
	// GenLateP95Ms is how late the writer itself started its appends; it
	// counts against the system in every freshness figure.
	GenLateP95Ms float64            `json:"gen_late_p95_ms"`
	Correct      bool               `json:"correct"`
	Invalid      bool               `json:"invalid,omitempty"` // generator ran late, even on the repeat
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

// results is the one schema every results file has.
type results struct {
	Schema  string            `json:"schema"`
	Host    hostFacts         `json:"host"`
	Commit  string            `json:"git_commit"`
	Started time.Time         `json:"started"`
	Seed    uint64            `json:"seed"`
	Seconds float64           `json:"seconds"`
	Units   map[string]string `json:"units"`
	Notes   []string          `json:"notes,omitempty"`
	Runs    []*record         `json:"runs"`
}

const resultsSchema = "mtlsbench/1"

// gitCommit names the measured commit; a checkout without git metadata
// (the driver's) is "unknown".
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (h *harness) newResults(o options) *results {
	r := &results{Schema: resultsSchema, Host: host(), Commit: gitCommit(h.root), Started: time.Now().UTC(),
		Seed: o.seed, Seconds: o.seconds, Units: map[string]string{}}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		r.Units[m.Name] = m.Unit
	}
	if r.Host.NProc == 1 {
		r.Notes = append(r.Notes, "nproc = 1: backfill-sharded runs 2 shards on one CPU; its figures price the sharded code path and say nothing about scaling")
	}
	return r
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

func (r *results) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects one metric's values over the valid runs of a workload.
func (r *results) values(workload, metric string, trace bool) []float64 {
	var xs []float64
	for _, rec := range r.Runs {
		if rec.Workload == workload && rec.Trace == trace && !rec.Invalid {
			if v, ok := rec.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

func (r *results) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, rec := range r.Runs {
		if !seen[rec.Workload] {
			seen[rec.Workload] = true
			names = append(names, rec.Workload)
		}
	}
	return names
}

// printRecord prints every metric of one run by name, with its unit.
func printRecord(w io.Writer, rec *record, defs []metricDef) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  seed %d  window %gs  %s  %d operations, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, kind, rec.Attempted, rec.Failed)
	for _, m := range defs {
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", m.Name, rec.Metrics[m.Name], m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if rec.Invalid {
		fmt.Fprintf(w, "  INVALID: the generator ran late on both attempts; freshness figures are the harness's, not the daemon's\n")
	}
}

// runSuite measures every workload: o.runs end-to-end runs (seed, seed+1,
// …) and one traced run each.
func (h *harness) runSuite(o options) (*results, error) {
	res := h.newResults(o)
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			rec, err := h.measure(w, o.seed+uint64(i), o.seconds, false)
			if err != nil {
				return res, fmt.Errorf("%s: %w", w.Name, err)
			}
			printRecord(os.Stdout, rec, endToEnd)
			res.Runs = append(res.Runs, rec)
		}
		rec, err := h.measure(w, o.seed, o.seconds, true)
		if err != nil {
			return res, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		printRecord(os.Stdout, rec, perLayer)
		res.Runs = append(res.Runs, rec)
	}
	return res, nil
}

// summarize prints, per end-to-end metric × workload, the median and the
// run-to-run spread (inter-quartile distance over the median), which
// must stay within the metric's bound for a comparison to resolve.
func (r *results) summarize(w io.Writer) {
	fmt.Fprintf(w, "\n%-22s %-18s %6s %14s %9s %7s\n", "metric", "workload", "runs", "median", "spread", "bound")
	for _, m := range endToEnd {
		for _, wl := range r.workloads() {
			xs := r.values(wl, m.Name, false)
			if len(xs) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-22s %-18s %6d %14.4f %8.1f%% %6.0f%%\n", m.Name, wl, len(xs), median(xs), 100*spread(xs), 100*m.Bound)
		}
	}
}

func (r *results) failed() (failed, invalid int) {
	for _, rec := range r.Runs {
		failed += rec.Failed
		if rec.Invalid {
			invalid++
		}
	}
	return failed, invalid
}

// suite is the default mode: all workloads, every metric printed, one
// results file. Exit 1 on any failed operation.
func (h *harness) suite(o options) int {
	res, err := h.runSuite(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	res.summarize(os.Stdout)
	out := o.out
	if out == "" {
		out = filepath.Join(h.work, "results.json")
	}
	if err := res.write(out); err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	failed, invalid := res.failed()
	fmt.Printf("\nresults written to %s: %d runs, %d failed operations, %d invalid runs\n", out, len(res.Runs), failed, invalid)
	if failed > 0 {
		return 1
	}
	return 0
}

// verdict of one metric × workload between two results files.
type verdict struct {
	Metric, Workload string
	Old, New         float64 // medians
	Delta            float64 // (new-old)/old, signed so that positive is worse
	Bound            float64
	Spread           float64 // the wider of the two files' spreads
	Verdict          string  // ok, regress, unresolved
}

// compareResults judges new against old on every metric of defs ×
// workload present in both. A metric regresses when its median is worse
// than old's by more than the bound. Where either side's run-to-run
// spread exceeds the bound the pairing is unresolved — not unchanged —
// unless every new run beats every old run.
func compareResults(defs []metricDef, old, new *results) []verdict {
	var out []verdict
	for _, m := range defs {
		for _, wl := range old.workloads() {
			xs, ys := old.values(wl, m.Name, false), new.values(wl, m.Name, false)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			v := verdict{Metric: m.Name, Workload: wl, Old: median(xs), New: median(ys), Bound: m.Bound,
				Spread: max(spread(xs), spread(ys))}
			if v.Old != 0 {
				v.Delta = (v.New - v.Old) / v.Old
				if m.Better == "higher" {
					v.Delta = -v.Delta
				}
			}
			switch {
			// setup_s is judged on its median alone, as the benchmark
			// contract does: a quarter-second of go build and generation
			// has a spread no bound would hold.
			case m.Name != "setup_s" && v.Spread > v.Bound && !allBetter(xs, ys, m.Better):
				v.Verdict = "unresolved"
			case v.Delta > v.Bound:
				v.Verdict = "regress"
			default:
				v.Verdict = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, new []float64, better string) bool {
	o, n := append([]float64(nil), old...), append([]float64(nil), new...)
	sort.Float64s(o)
	sort.Float64s(n)
	if better == "higher" {
		return n[0] > o[len(o)-1]
	}
	return n[len(n)-1] < o[0]
}

func printVerdicts(w io.Writer, vs []verdict) (regress, unresolved int) {
	fmt.Fprintf(w, "%-22s %-18s %14s %14s %8s %7s %8s  %s\n", "metric", "workload", "old median", "new median", "worse by", "bound", "spread", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-22s %-18s %14.4f %14.4f %7.1f%% %6.0f%% %7.1f%%  %s\n",
			v.Metric, v.Workload, v.Old, v.New, 100*v.Delta, 100*v.Bound, 100*v.Spread, v.Verdict)
		switch v.Verdict {
		case "regress":
			regress++
		case "unresolved":
			unresolved++
		}
	}
	return regress, unresolved
}

// compareFiles is -compare: exit 1 on any regression; unresolved
// pairings are reported and do not fail it.
func compareFiles(oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err == nil {
		var nw *results
		if nw, err = readResults(newPath); err == nil {
			if old.Host != nw.Host {
				fmt.Printf("warning: hosts differ (%+v vs %+v); only same-host files compare\n", old.Host, nw.Host)
			}
			regress, unresolved := printVerdicts(os.Stdout, compareResults(endToEnd, old, nw))
			fmt.Printf("%d regressions, %d unresolved\n", regress, unresolved)
			if regress > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "mtlsbench:", err)
	return 2
}

// checkSuite is -check: the suite twice on the same commit; the second
// set must agree with the first within the benchmark's own bounds, in
// both directions, on every end-to-end metric × workload.
func (h *harness) checkSuite(o options) int {
	o.runs = max(o.runs, 3)
	var sets [2]*results
	for i := range sets {
		res, err := h.runSuite(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtlsbench:", err)
			return 1
		}
		if err := res.write(filepath.Join(h.work, fmt.Sprintf("check-%d.json", i+1))); err != nil {
			fmt.Fprintln(os.Stderr, "mtlsbench:", err)
			return 1
		}
		sets[i] = res
		o.seed += uint64(o.runs) // the second set also proves a second seed passes the correctness gate
	}
	bad := 0
	for _, pair := range [][2]*results{{sets[0], sets[1]}, {sets[1], sets[0]}} {
		regress, unresolved := printVerdicts(os.Stdout, compareResults(endToEnd, pair[0], pair[1]))
		bad += regress + unresolved
	}
	for _, res := range sets {
		failed, _ := res.failed()
		bad += failed
	}
	if bad > 0 {
		fmt.Printf("check failed: %d disagreements or failed operations\n", bad)
		return 1
	}
	fmt.Println("check passed: both sets agree within every bound, 0 failed operations")
	return 0
}

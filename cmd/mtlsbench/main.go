// Command mtlsbench is the repository's one measurement harness: it
// builds mtlsd and mtlsreport, generates inputs from a seed, drives six
// workloads against the real binaries from outside, checks every
// workload's 23 reports against the batch oracle, and reports the
// end-to-end figures an operator sees (append→visible freshness,
// catch-up throughput, report latency, restart time, CPU and memory per
// row) next to a per-layer cost table. See README.md in this directory.
//
// Modes:
//
//	mtlsbench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (BENCHMARK.json contract)
//	mtlsbench [-runs N] [-smoke] [-out results.json]           the whole suite, every metric printed, one results file
//	mtlsbench --trace 1                                        the in-process traced walk alone: trace.json and the per-layer table
//	mtlsbench -compare old.json new.json                       medians, delta, bound and verdict per metric × workload
//	mtlsbench -check [-smoke]                                  the suite twice; fails if an end-to-end metric disagrees beyond its bound
//	mtlsbench -benchmark-json                                  BENCHMARK.json as catalogue.go and workloads.go define it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to
// the repository root (the driver's CARGO_TARGET_DIR convention).
const buildDir = ".bench_build"

// setupRepeats is how many times a measured run sets up, so setup_s is
// a median and a cold build cache on the first run is an outlier, not
// the figure.
const setupRepeats = 5

// smokeSeconds is the live window of a -smoke suite.
const smokeSeconds = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	smoke    bool
	out      string
	compare  bool
	check    bool
	emit     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result as the last line of output")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: dataset and append schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the live window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = per-layer metrics (traced walk plus daemon scrape) instead of end-to-end")
	flag.IntVar(&o.runs, "runs", 1, "suite: end-to-end runs per workload, each with the next seed")
	flag.BoolVar(&o.smoke, "smoke", false, "suite: shrink every live window to ~3 s, for plumbing checks")
	flag.StringVar(&o.out, "out", "", "suite: results file (default "+buildDir+"/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare old.json new.json")
	flag.BoolVar(&o.check, "check", false, "run the suite twice and fail if an end-to-end metric disagrees beyond its bound")
	flag.BoolVar(&o.emit, "benchmark-json", false, "print BENCHMARK.json as the catalogue and the workloads define it")
	flag.Parse()

	// A signal must not orphan the daemons: kill them, then go.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	os.Exit(run(o, flag.Args()))
}

func run(o options, args []string) int {
	if o.emit {
		return emitBenchmarkJSON(os.Stdout)
	}
	if o.compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: mtlsbench -compare old.json new.json")
			return 2
		}
		return compareFiles(args[0], args[1])
	}
	if o.seconds == 0 {
		o.seconds = defaultSeconds
		if o.smoke {
			o.seconds = smokeSeconds
		}
	}
	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	defer h.close()

	switch {
	case o.workload != "":
		return h.driverRun(o)
	case o.check:
		return h.checkSuite(o)
	case o.trace == 1:
		return h.walkOnly(o)
	default:
		return h.suite(o)
	}
}

// harness owns the scratch directory and the built binaries.
type harness struct {
	root string // repository root
	work string // root/.bench_build
	env  env
}

func newHarness() (*harness, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "mtlsd", "main.go")); err != nil {
		return nil, fmt.Errorf("run from the repository root (cmd/mtlsd not found under %s)", root)
	}
	h := &harness{root: root, work: filepath.Join(root, buildDir)}
	h.env.Bin = filepath.Join(h.work, "bin")
	if err := os.MkdirAll(h.env.Bin, 0o755); err != nil {
		return nil, err
	}
	if h.env.Dir, err = os.MkdirTemp(h.work, "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.env.Dir) }

// buildBinaries compiles the system under test from the checkout. With a
// warm build cache this is the toolchain's up-to-date check, which is
// what every later set-up pays.
func (h *harness) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", h.env.Bin+string(filepath.Separator), "./cmd/mtlsd", "./cmd/mtlsreport")
	cmd.Dir = h.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build mtlsd and mtlsreport: %w", err)
	}
	return nil
}

// setup is everything before a daemon starts: build the binaries,
// generate the dataset, render and plan every byte the run will write.
func (h *harness) setup(w workload, seed uint64, window time.Duration) (*input, time.Duration, error) {
	t := time.Now()
	if err := h.buildBinaries(); err != nil {
		return nil, 0, err
	}
	in, err := buildInput(w, seed, window)
	return in, time.Since(t), err
}

// runDir makes a fresh scratch directory for one lifecycle.
func (h *harness) runDir(name string) (env, error) {
	dir, err := os.MkdirTemp(h.env.Dir, name+"-")
	return env{Bin: h.env.Bin, Dir: dir}, err
}

// measure runs one workload once. With trace set it also walks the
// dataset in process and the record carries the per-layer metrics;
// without, set-up is repeated and the record carries the end-to-end
// metrics. A run whose generator was itself late is repeated once.
func (h *harness) measure(w workload, seed uint64, seconds float64, trace bool) (*record, error) {
	runtime.GC() // in a suite, start every run from a collected heap, as a fresh process would
	window := time.Duration(seconds * float64(time.Second))
	rec := &record{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, ProbeGapMs: ms(w.ProbeGap),
		Metrics: map[string]float64{}}

	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var in *input
	var setups []float64
	for i := 0; i < repeats; i++ {
		var took time.Duration
		var err error
		if in, took, err = h.setup(w, seed, window); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	rec.SpecHash = in.SpecHash

	var res *runResult
	var cold, final map[string][]byte
	for attempt := 0; ; attempt++ {
		e, err := h.runDir(w.Name)
		if err != nil {
			return nil, err
		}
		res, cold, final, err = runLive(e, in, trace)
		os.RemoveAll(e.Dir)
		if err != nil {
			return nil, err
		}
		rec.GenLateP95Ms = res.GenLateP95
		rec.Invalid = res.GenLateP95 > maxGenLateMs
		if !rec.Invalid || attempt == 1 {
			break
		}
		fmt.Fprintf(os.Stderr, "mtlsbench: %s: generator ran late (p95 %.1f ms > %v ms), repeating the run once\n",
			w.Name, res.GenLateP95, maxGenLateMs)
	}

	t := time.Now()
	orc, err := buildOracle(in)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mtlsbench: %s: set-up %.2fs ×%d, oracle %.2fs\n", w.Name, median(setups), repeats, time.Since(t).Seconds())
	orc.check(res, "cold", cold)
	orc.check(res, "post-restart", final) // empty unless the run was traced

	layer := res.Layer
	if trace {
		e, err := h.runDir(w.Name + "-walk")
		if err != nil {
			return nil, err
		}
		tr, walked, err := walk(e, in)
		if err != nil {
			return nil, err
		}
		for k, v := range walked {
			layer[k] = v
		}
		if err := tr.write(filepath.Join(h.work, "trace-"+w.Name+".json")); err != nil {
			return nil, err
		}
		os.RemoveAll(e.Dir)
		for _, m := range perLayer {
			rec.Metrics[m.Name] = layer[m.Name] // a layer the workload does not exercise reads 0
		}
	} else {
		res.E2E["setup_s"] = median(setups)
		for _, m := range endToEnd {
			v, ok := res.E2E[m.Name]
			if !ok {
				res.failf("%s was not measured", m.Name)
			}
			rec.Metrics[m.Name] = v
		}
	}
	rec.Attempted, rec.Failed, rec.Failures, rec.Notes = res.Attempted, res.Failed, res.Failures, res.Notes
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// driverRun is the BENCHMARK.json contract: one run, the result object
// as the last line of standard output, exit 0 when the run completed.
func (h *harness) driverRun(o options) int {
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "mtlsbench: unknown workload %q\n", o.workload)
		return 2
	}
	rec, err := h.measure(w, o.seed, o.seconds, o.trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	printRecord(os.Stdout, rec, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.Name] = value{rec.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// emitBenchmarkJSON prints the benchmark contract's file from the one
// place metrics and workloads are defined, so the two cannot drift (a
// test pins the checked-in file to the same source).
func emitBenchmarkJSON(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "cmd/mtlsbench/run.sh"}, Paths: []string{"cmd/mtlsbench"}, RunSeconds: defaultSeconds}
	for _, x := range workloads {
		out.Workloads = append(out.Workloads, wl{x.Name, x.Why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	return 0
}

// hostFacts is what a reader needs to judge whether two results files
// are comparable at all.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostFacts {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux; the fact is then simply empty
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// Command mtlsload is the load/chaos/soak harness for mtlsd: it
// streams a generated dataset into a live log directory at a target
// rate (sustained plus periodic bursts), injects the faults a
// production deployment actually sees — log rotation, copytruncate,
// malformed-row storms, SIGKILL of the daemon, slow-disk episodes —
// and then proves the daemon survived them:
//
//   - ingestion lag (file size minus consumed offset) stays bounded,
//   - the /metrics SLO series are alive and non-degenerate,
//   - the fully drained daemon's reports deep-equal an offline batch
//     run (internal/stream fed the identical rows), which in turn
//     matches mtls.Analyze over the same build,
//   - every malformed row landed in the quarantine, none in the engine.
//
// The run's timeline (lag samples, RSS, chaos events) is published as
// a benchmark artifact (-out BENCH_8.json). Exit status is nonzero if
// any assertion fails, so CI can gate on it directly.
//
// Usage:
//
//	go build -o mtlsd ./cmd/mtlsd && go build -o mtlsload ./cmd/mtlsload
//	./mtlsload -mtlsd ./mtlsd -rate 800 -out BENCH_8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	mtls "repro"
	"repro/internal/chaos"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/workload"
	"repro/internal/zeek"
)

// stormMarker tags malformed-storm rows so the quarantine can be
// audited for exactly them.
const stormMarker = "MTLSLOAD-STORM-c41e"

type options struct {
	mtlsd       string
	dir         string
	keep        bool
	spec        string
	scale       int
	seed        uint64
	rate        float64
	tick        time.Duration
	burstEvery  time.Duration
	burstLen    time.Duration
	burstFactor float64
	poll        time.Duration
	ckptEvery   time.Duration
	maxLag      int64
	maxRSS      int64
	store       string
	hotBytes    int64
	chaosModes  string
	stormRows   int
	throttle    int64
	sampleEvery time.Duration
	out         string
	waitDrain   time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.mtlsd, "mtlsd", "./mtlsd", "path to the mtlsd binary under test")
	flag.StringVar(&o.dir, "dir", "", "working directory (default: a temp dir, removed unless -keep)")
	flag.BoolVar(&o.keep, "keep", false, "keep the working directory after the run")
	flag.StringVar(&o.spec, "spec", "", "scenario spec YAML driving the generator (\"-\" = stdin; empty = built-in campus spec)")
	flag.IntVar(&o.scale, "scale", 2000, "generator scale divisor (larger = smaller dataset)")
	flag.Uint64Var(&o.seed, "seed", 0, "generator seed (0 = library default)")
	flag.Float64Var(&o.rate, "rate", 800, "sustained connection rows per second")
	flag.DurationVar(&o.tick, "tick", 50*time.Millisecond, "writer tick granularity")
	flag.DurationVar(&o.burstEvery, "burst-every", 10*time.Second, "burst window period (0 disables bursts)")
	flag.DurationVar(&o.burstLen, "burst-len", 2*time.Second, "burst window length")
	flag.Float64Var(&o.burstFactor, "burst-factor", 3, "rate multiplier inside a burst window")
	flag.DurationVar(&o.poll, "poll", 100*time.Millisecond, "daemon log poll interval")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 2*time.Second, "daemon checkpoint interval")
	flag.Int64Var(&o.maxLag, "max-lag-bytes", 64<<20, "fail if sampled ingestion lag ever exceeds this")
	flag.Int64Var(&o.maxRSS, "max-rss-bytes", 0, "fail if sampled daemon VmRSS ever exceeds this (0 = no bound)")
	flag.StringVar(&o.store, "store", "", "daemon state store (passed through as mtlsd -store; empty = daemon default)")
	flag.Int64Var(&o.hotBytes, "hot-bytes", 0, "disk store hot-tier budget (passed through as mtlsd -hot-bytes)")
	flag.StringVar(&o.chaosModes, "chaos", "malformed,rotate,copytruncate,kill,slowdisk",
		"comma-separated fault list (subset of malformed,rotate,copytruncate,kill,slowdisk)")
	flag.IntVar(&o.stormRows, "malformed-rows", 200, "rows per malformed storm")
	flag.Int64Var(&o.throttle, "slowdisk-bytes-per-sec", 128<<10, "append bandwidth during the slow-disk episode")
	flag.DurationVar(&o.sampleEvery, "sample-every", 250*time.Millisecond, "lag/RSS sampling interval")
	flag.StringVar(&o.out, "out", "", "write the benchmark artifact (JSON) to this path")
	flag.DurationVar(&o.waitDrain, "drain-timeout", 2*time.Minute, "final drain deadline")
	flag.Parse()

	if code := run(&o); code != 0 {
		os.Exit(code)
	}
}

// artifact is the BENCH_8.json shape.
type artifact struct {
	Bench  string         `json:"bench"`
	Host   hostInfo       `json:"host"`
	Config map[string]any `json:"config"`
	Totals totals         `json:"totals"`
	Lag    lagSummary     `json:"lag"`
	RSS    rssSummary     `json:"rss"`
	Events []chaos.Event  `json:"events"`
	Verify verifySummary  `json:"verify"`
}

type hostInfo struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

type totals struct {
	Conns           int     `json:"conns"`
	Certs           int     `json:"certs"`
	MalformedRows   int     `json:"malformed_rows"`
	BytesWritten    int64   `json:"bytes_written"`
	DurationSec     float64 `json:"duration_sec"`
	AchievedRowsSec float64 `json:"achieved_rows_per_sec"`
}

type lagSummary struct {
	MaxBytes int64 `json:"max_bytes"`
	P95Bytes int64 `json:"p95_bytes"`
	Samples  int   `json:"samples"`
}

type rssSummary struct {
	MaxBytes int64 `json:"max_bytes"`
}

type verifySummary struct {
	ReportsChecked  int  `json:"reports_checked"`
	ReportsMatch    bool `json:"reports_match"`
	AnalysisMatch   bool `json:"analysis_match"`
	Drained         bool `json:"drained"`
	QuarantineOK    bool `json:"quarantine_ok"`
	MetricsOK       bool `json:"metrics_ok"`
	LagBounded      bool `json:"lag_bounded"`
	RSSBounded      bool `json:"rss_bounded"`
	DaemonRestarted bool `json:"daemon_restarted"`
}

// harness bundles the run's moving parts.
type harness struct {
	o     *options
	dir   string // working dir
	spec  string // canonical spec file handed to the daemon
	logs  string // live log dir the daemon tails
	base  string // daemon base URL
	addr  string // daemon listen address
	app   *chaos.Appender
	rec   chaos.Recorder
	start time.Time

	mu   sync.Mutex
	proc *chaos.Proc

	// preKill is the /metrics exposition captured just before SIGKILL:
	// counters reset on restart, so chaos detected before the kill is
	// only visible in this snapshot.
	preKill string

	fails []string
}

func (h *harness) failf(format string, args ...any) {
	h.fails = append(h.fails, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func (h *harness) elapsed() float64 { return time.Since(h.start).Seconds() }

func (h *harness) event(kind, detail string) {
	h.rec.Record(h.elapsed(), kind, detail)
	fmt.Printf("[%7.2fs] %s %s\n", h.elapsed(), kind, detail)
}

// daemonArgs are the flags every (re)start of the daemon uses; the
// checkpoint path is what makes a restart a restore.
func (h *harness) daemonArgs() []string {
	args := []string{
		"-logs", h.logs,
		"-listen", h.addr,
		"-poll", h.o.poll.String(),
		"-checkpoint", filepath.Join(h.dir, "checkpoint"),
		"-checkpoint-every", h.o.ckptEvery.String(),
		"-spec", h.spec,
		"-scale", strconv.Itoa(h.o.scale),
		"-seed", strconv.FormatUint(h.o.seed, 10),
		"-quarantine", filepath.Join(h.dir, "quarantine.log"),
		"-log-level", "warn",
	}
	if h.o.store != "" {
		args = append(args, "-store", h.o.store)
		if h.o.store == "disk" {
			// The scratch directory survives restarts but carries no
			// durable state — the restore path rebuilds the tiers from
			// the checkpoint, exactly as a fresh host would.
			args = append(args, "-store-dir", filepath.Join(h.dir, "store"))
		}
		if h.o.hotBytes > 0 {
			args = append(args, "-hot-bytes", strconv.FormatInt(h.o.hotBytes, 10))
		}
	}
	return args
}

func (h *harness) startDaemon() error {
	p, err := chaos.StartProc(h.o.mtlsd, h.daemonArgs(), filepath.Join(h.dir, "mtlsd.log"))
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.proc = p
	h.mu.Unlock()
	return chaos.WaitHealthy(h.base, 15*time.Second)
}

func (h *harness) currentProc() *chaos.Proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.proc
}

func run(o *options) int {
	h := &harness{o: o, dir: o.dir}
	if h.dir == "" {
		d, err := os.MkdirTemp("", "mtlsload-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		h.dir = d
		if !o.keep {
			defer os.RemoveAll(d)
		}
	} else if err := os.MkdirAll(h.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if o.keep {
		fmt.Printf("working dir: %s\n", h.dir)
	}
	h.logs = filepath.Join(h.dir, "logs")
	h.app = chaos.NewAppender(h.logs)

	modes := map[string]bool{}
	for _, m := range strings.Split(o.chaosModes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			modes[m] = true
		}
	}

	// The dataset: one deterministic build is both the traffic source
	// and the verification oracle. The x509 rows the daemon will see
	// are the serialized form — write once to scratch and read back so
	// writer quirks (ordering, encoding) match the live stream exactly.
	spec := mtls.CampusSpec()
	if o.spec != "" {
		var err error
		if spec, err = mtls.LoadSpec(o.spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fmt.Printf("generating dataset (scale %d)...\n", o.scale)
	build, err := mtls.Generate(spec, mtls.WithScale(o.scale), mtls.WithSeed(o.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The daemon rebuilds the same analysis context from the same spec;
	// hand it the canonical rendering so both sides compile one source.
	h.spec = filepath.Join(h.dir, "workload.spec.yaml")
	if err := os.WriteFile(h.spec, []byte(scenario.Render(spec)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	conns := build.Raw.Conns
	certs, err := certRows(build, h.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("dataset: %d conn rows, %d cert rows\n", len(conns), len(certs))

	// Fingerprinted cohorts need ssl.log's 14-column schema from the
	// first header on, or the daemon would tail fingerprint-free rows
	// and diverge from the offline oracle.
	for i := range conns {
		if conns[i].JA3 != "" || conns[i].JA4 != "" {
			h.app.Extended = true
			break
		}
	}

	if err := h.app.Init(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Pick a port by binding and releasing it; the daemon rebinds the
	// same address on every restart so the base URL stays stable.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h.addr = ln.Addr().String()
	h.base = "http://" + h.addr
	ln.Close()

	h.start = time.Now()
	if err := h.startDaemon(); err != nil {
		fmt.Fprintf(os.Stderr, "start mtlsd: %v\n", err)
		return 1
	}
	defer func() {
		if p := h.currentProc(); p != nil && !p.Exited() {
			p.Stop(10 * time.Second)
		}
	}()
	h.event("start", "daemon "+h.base)

	// Sampler: lag + RSS timeline for the artifact. Fetch failures are
	// expected inside the kill window and simply skipped.
	sampleStop := make(chan struct{})
	var sampleDone sync.WaitGroup
	sampleDone.Add(1)
	go func() {
		defer sampleDone.Done()
		t := time.NewTicker(o.sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-t.C:
			}
			st, err := chaos.FetchStats(h.base)
			if err != nil {
				continue
			}
			var rss int64
			if p := h.currentProc(); p != nil {
				rss = p.RSSBytes()
			}
			h.mu.Lock()
			h.rec.Observe(chaos.Sample{
				At: h.elapsed(), Conns: st.ConnsIngested, Certs: st.CertsIngested,
				LagSSL: st.TailLag["ssl"], LagX509: st.TailLag["x509"], RSSBytes: rss,
			})
			h.mu.Unlock()
		}
	}()

	verify := h.streamWithChaos(conns, certs, modes)
	close(sampleStop)
	sampleDone.Wait()
	duration := h.elapsed()

	// Final drain: everything written must be ingested and the lag
	// gauges zero before the report comparison is meaningful.
	st, err := chaos.WaitDrained(h.base, uint64(len(conns)), uint64(len(certs)), o.waitDrain)
	if err != nil {
		h.failf("final drain: %v", err)
	} else {
		verify.Drained = true
		h.event("drained", fmt.Sprintf("conns=%d certs=%d", st.ConnsIngested, st.CertsIngested))
	}
	if st.ConnsIngested != uint64(len(conns)) {
		h.failf("daemon ingested %d conns, wrote %d (loss or duplication across chaos)",
			st.ConnsIngested, len(conns))
		verify.Drained = false
	}
	if st.CertsIngested != uint64(len(certs)) {
		h.failf("daemon ingested %d certs, wrote %d", st.CertsIngested, len(certs))
		verify.Drained = false
	}

	verify.LagBounded = true
	if maxLag := h.rec.MaxLag(); maxLag > o.maxLag {
		h.failf("ingestion lag peaked at %d bytes, bound %d", maxLag, o.maxLag)
		verify.LagBounded = false
	}
	verify.RSSBounded = true
	if o.maxRSS > 0 {
		if maxRSS := h.rec.MaxRSS(); maxRSS > o.maxRSS {
			h.failf("daemon RSS peaked at %d bytes, bound %d (hot tier not holding its budget?)", maxRSS, o.maxRSS)
			verify.RSSBounded = false
		}
	}

	if modes["malformed"] {
		verify.QuarantineOK = h.checkQuarantine()
	} else {
		verify.QuarantineOK = true
	}
	verify.MetricsOK = h.checkMetrics(modes)
	h.checkReports(build, conns, certs, &verify)

	art := artifact{
		Bench: "mtlsload-soak",
		Host: hostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GoVersion: runtime.Version()},
		Config: map[string]any{
			"scale": o.scale, "seed": o.seed, "rate": o.rate,
			"burst_every": o.burstEvery.String(), "burst_len": o.burstLen.String(),
			"burst_factor": o.burstFactor, "poll": o.poll.String(),
			"checkpoint_every": o.ckptEvery.String(), "chaos": sortedKeys(modes),
			"malformed_rows":         o.stormRows,
			"slowdisk_bytes_per_sec": o.throttle,
			"store":                  o.store, "hot_bytes": o.hotBytes, "max_rss_bytes": o.maxRSS,
		},
		Totals: totals{
			Conns: len(conns), Certs: len(certs), MalformedRows: stormTotal(modes, o),
			BytesWritten: h.app.BytesWritten(), DurationSec: round2(duration),
			AchievedRowsSec: round2(float64(len(conns)+len(certs)) / duration),
		},
		Lag: lagSummary{MaxBytes: h.rec.MaxLag(), P95Bytes: h.rec.LagQuantile(0.95),
			Samples: len(h.rec.Samples)},
		RSS:    rssSummary{MaxBytes: h.rec.MaxRSS()},
		Events: h.rec.Events,
		Verify: verify,
	}
	if o.out != "" {
		data, _ := json.MarshalIndent(art, "", "  ")
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			h.failf("write %s: %v", o.out, err)
		} else {
			fmt.Printf("artifact written to %s\n", o.out)
		}
	}

	if len(h.fails) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d failure(s):\n", len(h.fails))
		for _, f := range h.fails {
			fmt.Fprintln(os.Stderr, "  - "+f)
		}
		return 1
	}
	fmt.Printf("soak passed: %d rows in %.1fs (%.0f rows/s), max lag %d bytes, %d chaos events\n",
		len(conns)+len(certs), duration, art.Totals.AchievedRowsSec, art.Lag.MaxBytes, len(art.Events))
	return 0
}

// streamWithChaos is the writer loop: paced appends with chaos
// injections keyed to progress fractions of the connection stream.
// Certificate rows ride along proportionally so enrichment data never
// trails far behind the connections that need it.
func (h *harness) streamWithChaos(conns []zeek.SSLRecord, certs []zeek.X509Record, modes map[string]bool) verifySummary {
	var verify verifySummary
	o := h.o
	pacer := &workload.Pacer{Pace: workload.Pace{
		Rate: o.rate, BurstEvery: o.burstEvery, BurstLen: o.burstLen, BurstFactor: o.burstFactor,
	}}

	type trigger struct {
		frac float64
		kind string
		fire func()
	}
	var written, certWritten int // rows appended so far
	drain := func(why string) {
		st, err := chaos.WaitDrained(h.base, uint64(written), uint64(certWritten), 60*time.Second)
		if err != nil {
			h.failf("quiesce before %s: %v", why, err)
			return
		}
		_ = st
	}
	var triggers []trigger
	if modes["malformed"] {
		triggers = append(triggers, trigger{0.20, "malformed", func() {
			if err := h.app.MalformedStorm(chaos.SSLLog, stormMarker, o.stormRows); err != nil {
				h.failf("malformed storm: %v", err)
			}
		}})
	}
	if modes["rotate"] {
		triggers = append(triggers, trigger{0.35, "rotate", func() {
			// No quiesce: the tailer reads the rows it had not consumed
			// from the renamed file before it switches to the new one.
			if err := h.app.Rotate(chaos.SSLLog); err != nil {
				h.failf("rotate: %v", err)
			}
		}})
	}
	if modes["copytruncate"] {
		triggers = append(triggers, trigger{0.50, "copytruncate", func() {
			drain("copytruncate")
			if err := h.app.CopyTruncate(chaos.X509Log); err != nil {
				h.failf("copytruncate: %v", err)
			}
		}})
	}
	if modes["kill"] {
		triggers = append(triggers, trigger{0.65, "kill", func() {
			// A restored tailer resumes from the checkpointed offset
			// with no file identity, so the checkpoint it restores must
			// postdate every rotation: drain, then wait for a checkpoint
			// newer than the drain, then kill.
			drain("kill")
			if body, err := chaos.FetchBody(h.base, "/metrics"); err == nil {
				h.preKill = string(body)
			}
			tDrain := time.Now()
			if _, err := chaos.WaitCheckpointAfter(h.base, tDrain, 30*time.Second); err != nil {
				h.failf("checkpoint before kill: %v", err)
				return
			}
			if err := h.currentProc().Kill(); err != nil {
				h.failf("kill: %v", err)
				return
			}
			h.event("killed", "SIGKILL delivered, restarting")
			if err := h.startDaemon(); err != nil {
				h.failf("restart after kill: %v", err)
				return
			}
			verify.DaemonRestarted = true
			h.rec.Record(h.elapsed(), "restart", "daemon restored from checkpoint")
		}})
	}
	if modes["slowdisk"] {
		triggers = append(triggers, trigger{0.80, "slowdisk-on", func() { h.app.Throttle = o.throttle }})
		triggers = append(triggers, trigger{0.90, "slowdisk-off", func() { h.app.Throttle = 0 }})
	}
	sort.Slice(triggers, func(i, j int) bool { return triggers[i].frac < triggers[j].frac })

	next := 0 // next trigger to fire
	certTarget := func(connIdx int) int {
		if len(conns) == 0 {
			return len(certs)
		}
		return connIdx * len(certs) / len(conns)
	}
	streamStart := time.Now()
	prev := time.Duration(0)
	var stalled time.Duration // time spent inside chaos triggers, excluded from the rate integral
	for written < len(conns) {
		time.Sleep(o.tick)
		elapsed := time.Since(streamStart) - stalled
		n := pacer.Step(elapsed, elapsed-prev)
		prev = elapsed
		if n == 0 {
			continue
		}
		hi := written + n
		if hi > len(conns) {
			hi = len(conns)
		}
		if err := h.app.AppendConns(conns[written:hi]); err != nil {
			h.failf("append conns: %v", err)
			return verify
		}
		written = hi
		if ct := certTarget(written); ct > certWritten {
			if err := h.app.AppendCerts(certs[certWritten:ct]); err != nil {
				h.failf("append certs: %v", err)
				return verify
			}
			certWritten = ct
		}
		frac := float64(written) / float64(len(conns))
		for next < len(triggers) && frac >= triggers[next].frac {
			tr := triggers[next]
			next++
			h.event(tr.kind, fmt.Sprintf("at %.0f%% (%d rows)", tr.frac*100, written))
			fireStart := time.Now()
			tr.fire()
			// A trigger that quiesced or restarted the daemon consumed
			// wall time the pacer must not turn into a catch-up burst.
			stalled += time.Since(fireStart)
		}
	}
	// Tail of the cert stream.
	if certWritten < len(certs) {
		if err := h.app.AppendCerts(certs[certWritten:]); err != nil {
			h.failf("append certs: %v", err)
		}
		certWritten = len(certs)
	}
	// Fire anything not reached (tiny datasets).
	for next < len(triggers) {
		tr := triggers[next]
		next++
		h.event(tr.kind, "at end of stream")
		tr.fire()
	}
	return verify
}

// checkQuarantine asserts every storm row (and only rows, not engine
// state) landed in the quarantine file.
func (h *harness) checkQuarantine() bool {
	data, err := os.ReadFile(filepath.Join(h.dir, "quarantine.log"))
	if err != nil {
		h.failf("read quarantine: %v", err)
		return false
	}
	got := strings.Count(string(data), stormMarker)
	if got != h.o.stormRows {
		h.failf("quarantine holds %d storm rows, want %d", got, h.o.stormRows)
		return false
	}
	return true
}

// checkMetrics asserts the daemon's SLO series are alive and
// non-degenerate after the soak. Counters reset on restart, so the
// checks are existence/shape, not exact totals.
func (h *harness) checkMetrics(modes map[string]bool) bool {
	body, err := chaos.FetchBody(h.base, "/metrics")
	if err != nil {
		h.failf("fetch /metrics: %v", err)
		return false
	}
	text := string(body)
	sumIn := func(text, name string) (float64, bool) {
		var total float64
		found := false
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, name) {
				continue
			}
			rest := line[len(name):]
			if rest != "" && rest[0] != '{' && rest[0] != ' ' {
				continue // longer metric name sharing the prefix
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				continue
			}
			total += v
			found = true
		}
		return total, found
	}
	ok := true
	expect := func(text, name string, min float64, why string) {
		v, found := sumIn(text, name)
		if !found || v < min {
			h.failf("metric %s = %v (found=%v), want >= %v (%s)", name, v, found, min, why)
			ok = false
		}
	}
	expect(text, "stream_conns_ingested_total", 1, "engine ingested the stream")
	expect(text, "mtlsd_checkpoint_writes_total", 1, "periodic checkpoints ran")
	expect(text, "tail_lag_bytes", 0, "lag gauges exported")
	// Rotation counters reset when the kill restarts the daemon; the
	// rotations happen earlier in the schedule, so they are asserted on
	// the exposition snapshotted just before SIGKILL.
	rotText := text
	if modes["kill"] {
		if h.preKill == "" {
			h.failf("no pre-kill /metrics snapshot captured")
			return false
		}
		rotText = h.preKill
	}
	if modes["rotate"] {
		expect(rotText, `tail_rotations_total{file="ssl"}`, 1, "rename rotation detected")
	}
	if modes["copytruncate"] {
		expect(rotText, `tail_rotations_total{file="x509"}`, 1, "copytruncate detected")
	}
	return ok
}

// checkReports fetches every report from the drained daemon and
// deep-compares it against an offline oracle: a fresh stream engine fed
// the identical rows, which itself must agree with the batch
// mtls.Analyze of the build. Daemon == oracle == batch closes the loop
// from "survived chaos" to "still computes the paper".
func (h *harness) checkReports(build *mtls.Build, conns []zeek.SSLRecord, certs []zeek.X509Record, v *verifySummary) {
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	eng, err := stream.New(stream.Config{Input: in})
	if err != nil {
		h.failf("oracle engine: %v", err)
		return
	}
	defer eng.Close()
	eng.IngestCertBatch(certs)
	eng.IngestConnBatch(conns)
	eng.Drain()

	oracleJSON, err := json.Marshal(eng.Analysis())
	if err != nil {
		h.failf("marshal oracle analysis: %v", err)
		return
	}
	batchJSON, err := json.Marshal(mtls.Analyze(build))
	if err != nil {
		h.failf("marshal batch analysis: %v", err)
		return
	}
	v.AnalysisMatch = string(oracleJSON) == string(batchJSON)
	if !v.AnalysisMatch {
		h.failf("offline oracle diverges from mtls.Analyze: the harness rows are not the build")
	}

	names := stream.ReportNames()
	v.ReportsChecked = len(names)
	v.ReportsMatch = true
	for _, name := range names {
		body, err := chaos.FetchBody(h.base, "/api/v1/reports/"+name)
		if err != nil {
			h.failf("fetch report %s: %v", name, err)
			v.ReportsMatch = false
			continue
		}
		want, err := eng.Report(name)
		if err != nil {
			h.failf("oracle report %s: %v", name, err)
			v.ReportsMatch = false
			continue
		}
		// Both sides round-trip through JSON so map ordering and
		// indentation cannot cause false mismatches.
		wantJSON, err := json.Marshal(want)
		if err != nil {
			h.failf("marshal oracle report %s: %v", name, err)
			v.ReportsMatch = false
			continue
		}
		var gotAny, wantAny any
		if err := json.Unmarshal(body, &gotAny); err != nil {
			h.failf("decode daemon report %s: %v", name, err)
			v.ReportsMatch = false
			continue
		}
		if err := json.Unmarshal(wantJSON, &wantAny); err != nil {
			h.failf("decode oracle report %s: %v", name, err)
			v.ReportsMatch = false
			continue
		}
		if !reflect.DeepEqual(gotAny, wantAny) {
			h.failf("report %s: daemon body differs from offline batch", name)
			v.ReportsMatch = false
		}
	}
	if v.ReportsMatch {
		fmt.Printf("verified %d reports against the offline batch oracle\n", len(names))
	}
}

// certRows serializes the build's certificates once and reads them
// back, yielding the exact x509 rows the live stream will carry.
func certRows(build *mtls.Build, dir string) ([]zeek.X509Record, error) {
	scratch := filepath.Join(dir, "scratch")
	if err := mtls.WriteLogs(build.Raw, scratch); err != nil {
		return nil, fmt.Errorf("write scratch logs: %w", err)
	}
	f, err := os.Open(filepath.Join(scratch, "x509.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := zeek.ReadX509(f)
	if err != nil {
		return nil, fmt.Errorf("read back x509 rows: %w", err)
	}
	os.RemoveAll(scratch)
	return recs, nil
}

func stormTotal(modes map[string]bool, o *options) int {
	if modes["malformed"] {
		return o.stormRows
	}
	return 0
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func round2(v float64) float64 { return float64(int(v*100)) / 100 }

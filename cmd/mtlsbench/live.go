package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/stream"
)

// Daemon constants of every workload: the benchmark prices the code, not
// a tuning, so these never vary between workloads or commits.
const (
	pollEvery       = 50 * time.Millisecond
	checkpointEvery = 2 * time.Second
	syncEvery       = 100 * time.Millisecond
)

const (
	// applyTimeout is how long a chunk may take to show up in the stats
	// before it counts as failed (and as missing any latency figure).
	applyTimeout = 10 * time.Second
	// catchUpTimeout bounds the wait on the backlog and on a restart.
	catchUpTimeout = 90 * time.Second
	stopTimeout    = 30 * time.Second
	// Warm sweeps: at least two, then as many as fit the budget.
	warmSweepsMin = 2
	warmSweepsMax = 12
	warmBudget    = 1500 * time.Millisecond
)

// env is where a run finds its binaries and may write.
type env struct {
	Bin string // directory holding mtlsd and mtlsreport
	Dir string // scratch directory of this run, removed by the caller
}

// runResult is what one pass through the lifecycle measured.
type runResult struct {
	Attempted  int
	Failed     int                // failed operations
	Failures   []string           // what failed, one message per kind
	E2E        map[string]float64 // end-to-end metrics, setup_s excluded
	Layer      map[string]float64 // per-layer metrics scraped from outside
	Notes      []string
	GenLateP95 float64 // ms; the run is invalid when the generator itself ran late
}

// failf records one failed operation; failN records n with one message.
func (r *runResult) failf(format string, args ...any) { r.failN(1, format, args...) }

func (r *runResult) failN(n int, format string, args ...any) {
	r.Failed += n
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// liveRun is one workload's lifecycle against real mtlsd processes:
//
//	spawn on the backlog → caught up → live window (open-loop appends,
//	prober, optional reader) → drained → cold sweep, warm sweeps →
//	[traced runs: SIGTERM, restart from the checkpoint, final sweep] → stop.
//
// Everything is observed from outside: the stats and metrics endpoints,
// the report bodies, and the kernel's accounting of the processes.
type liveRun struct {
	env     env
	in      *input
	res     *runResult
	tailers []*daemon // index = log directory
	agg     *daemon   // nil without sensors
	front   *daemon   // where probes and reads go
	probe   *http.Client
	read    *http.Client
	names   []string
	cpu     map[string]time.Duration // per daemon name, all incarnations
	rss     map[string]int64         // per daemon name, peak over incarnations
	cold    map[string][]byte        // report bodies of the cold sweep
	final   map[string][]byte        // report bodies after the restart
}

func (lr *liveRun) logDir(d int) string { return filepath.Join(lr.env.Dir, "logs"+strconv.Itoa(d)) }

// contextArgs are the flags that make a daemon rebuild the analysis
// context the generator used.
func (lr *liveRun) contextArgs() ([]string, error) {
	args := []string{"-scale", strconv.Itoa(lr.in.W.Scale), "-seed", strconv.FormatUint(lr.in.Seed, 10), "-log-level", "warn"}
	if lr.in.W.Fleet {
		spec := filepath.Join(lr.env.Dir, "fleet.spec.yaml")
		if err := os.WriteFile(spec, fleetSpecYAML, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-spec", spec)
	}
	return args, nil
}

// layout writes the backlog and declares the daemons.
func (lr *liveRun) layout() error {
	w := lr.in.W
	ctxArgs, err := lr.contextArgs()
	if err != nil {
		return err
	}
	mtlsd := filepath.Join(lr.env.Bin, "mtlsd")
	var sensorAddrs []string
	for d := range lr.in.Plan.BacklogSSL {
		if err := os.MkdirAll(lr.logDir(d), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(lr.logDir(d), "x509.log"), lr.in.Plan.BacklogX509[d], 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(lr.logDir(d), "ssl.log"), lr.in.Plan.BacklogSSL[d], 0o644); err != nil {
			return err
		}
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		sfx := strconv.Itoa(d)
		args := append([]string{
			"-logs", lr.logDir(d), "-listen", addr,
			"-poll", pollEvery.String(),
			"-checkpoint", filepath.Join(lr.env.Dir, "ckpt"+sfx),
			"-checkpoint-every", checkpointEvery.String(),
			"-shards", strconv.Itoa(resolveShards(w.Shards)),
		}, ctxArgs...)
		if w.Store != "" {
			args = append(args, "-store", w.Store, "-store-dir", filepath.Join(lr.env.Dir, "store"+sfx),
				"-hot-bytes", strconv.FormatInt(w.HotBytes, 10))
		}
		name := "monitor"
		if w.Sensors > 0 {
			name = "sensor" + sfx
			args = append(args, "-role", "sensor")
			sensorAddrs = append(sensorAddrs, addr)
		}
		lr.tailers = append(lr.tailers, newDaemon(name, mtlsd, addr, filepath.Join(lr.env.Dir, name+".log"), args))
	}
	lr.front = lr.tailers[0]
	if w.Sensors > 0 {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		args := append([]string{"-role", "aggregator", "-sensors", strings.Join(sensorAddrs, ","),
			"-listen", addr, "-sync-every", syncEvery.String()}, ctxArgs...)
		lr.agg = newDaemon("aggregator", mtlsd, addr, filepath.Join(lr.env.Dir, "aggregator.log"), args)
		lr.front = lr.agg
	}
	return nil
}

func (lr *liveRun) all() []*daemon {
	if lr.agg == nil {
		return lr.tailers
	}
	return append(append([]*daemon(nil), lr.tailers...), lr.agg)
}

// account folds one finished incarnation into the per-daemon totals.
func (lr *liveRun) account(d *daemon, u usage, err error) {
	lr.res.Attempted++ // a daemon exit is an operation: it must be clean
	if err != nil {
		lr.res.failf("%v", err)
	}
	lr.cpu[d.Name] += u.CPU
	lr.rss[d.Name] = max(lr.rss[d.Name], u.MaxRSS)
}

// runLive drives the lifecycle. The returned error is a harness failure
// (nothing was measured); measured failures are in the result.
func runLive(e env, in *input, restart bool) (res *runResult, cold, final map[string][]byte, err error) {
	lr := &liveRun{env: e, in: in, probe: newClient(), read: newClient(), names: stream.ReportNames(),
		res: &runResult{E2E: map[string]float64{}, Layer: map[string]float64{}},
		cpu: map[string]time.Duration{}, rss: map[string]int64{}}
	defer func() {
		for _, d := range lr.all() {
			d.kill()
		}
		lr.probe.CloseIdleConnections()
		lr.read.CloseIdleConnections()
	}()
	t := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "mtlsbench: %s: %s %.2fs\n", in.W.Name, name, time.Since(t).Seconds())
		t = time.Now()
	}
	if err := lr.layout(); err != nil {
		return nil, nil, nil, err
	}
	if err := lr.catchUp(); err != nil {
		return nil, nil, nil, err
	}
	phase("catch-up")
	if err := lr.liveWindow(); err != nil {
		return nil, nil, nil, err
	}
	phase("live window")
	lr.sweeps()
	lr.scrape()
	phase("sweeps")
	if restart {
		if err := lr.restart(); err != nil {
			return nil, nil, nil, err
		}
		phase("restart")
	}
	for _, d := range lr.all() {
		u, err := d.stop(stopTimeout)
		lr.account(d, u, err)
	}
	phase("stop")
	lr.totals()
	return lr.res, lr.cold, lr.final, nil
}

// catchUp spawns the deployment on the pre-written backlog and waits
// until the front shows every backlog connection (and, on a monitor,
// every backlog certificate with zero tail lag).
func (lr *liveRun) catchUp() error {
	p := lr.in.Plan
	spawn := time.Now()
	for _, d := range lr.tailers {
		if err := d.start(); err != nil {
			return err
		}
	}
	if lr.agg != nil {
		// The aggregator backs off from a sensor that does not answer;
		// start it once both do, so the measured catch-up is the system's
		// and not the backoff schedule's.
		for _, d := range lr.tailers {
			if _, _, _, err := waitStats(lr.probe, d, d.Base, 5*time.Millisecond, catchUpTimeout,
				func(daemonStats) bool { return true }); err != nil {
				return err
			}
		}
		if err := lr.agg.start(); err != nil {
			return err
		}
	}
	backlogCerts := uint64(p.BacklogCerts)
	caught := func(st daemonStats) bool {
		if st.ConnsIngested < uint64(p.BacklogConns) {
			return false
		}
		return lr.agg != nil || (st.CertsIngested >= backlogCerts && st.lag() == 0)
	}
	st, at, first, err := waitStats(lr.probe, lr.front, lr.front.Base, lr.in.W.ProbeGap, catchUpTimeout, caught)
	if err != nil {
		return fmt.Errorf("catch-up: %w", err)
	}
	lr.res.Attempted++
	if st.ConnsIngested != uint64(p.BacklogConns) {
		lr.res.failf("catch-up: daemon shows %d connections, backlog holds %d", st.ConnsIngested, p.BacklogConns)
	}
	rows := float64(p.BacklogConns) + float64(backlogCerts)
	lr.res.Layer["mtlsd.catchup_rows_per_s"] = rows / at.Sub(spawn).Seconds()
	lr.res.Layer["mtlsd.startup_ms"] = ms(first.Sub(lr.front.Spawn))
	return nil
}

// prober measures freshness: one keep-alive connection, sleeping
// ProbeGap between stats responses. Chunk k is fresh at the first
// response that shows its rows; its clock started when it was due, not
// when it was written.
type prober struct {
	done   chan struct{}
	fresh  []float64 // ms, one per chunk seen applied
	probes int
	lagMax int64
}

func (lr *liveRun) startProber(t0 time.Time, stop <-chan struct{}) *prober {
	chunks := lr.in.Plan.Chunks
	pr := &prober{done: make(chan struct{}), fresh: make([]float64, 0, len(chunks))}
	go func() {
		defer close(pr.done)
		for k := 0; k < len(chunks); {
			select {
			case <-stop:
				return
			default:
			}
			st, err := fetchStats(lr.probe, lr.front.Base)
			at := time.Now()
			if err == nil {
				pr.probes++
				pr.lagMax = max(pr.lagMax, st.lag())
				for k < len(chunks) && st.ConnsIngested >= uint64(chunks[k].CumConns) {
					pr.fresh = append(pr.fresh, ms(at.Sub(t0.Add(chunks[k].Due))))
					k++
				}
			}
			time.Sleep(lr.in.W.ProbeGap)
		}
	}()
	return pr
}

// reader fetches one report per tick, round-robin over all 23, on its
// own connection, until stop closes. Mid-stream bodies cannot be
// compared with the oracle; a fetch fails on anything but a 200.
type reader struct {
	done chan struct{}
	ms   []float64
	bad  int
}

func (lr *liveRun) startReader(stop <-chan struct{}) *reader {
	rd := &reader{done: make(chan struct{})}
	hz := lr.in.W.ReaderHz
	if hz <= 0 {
		close(rd.done)
		return rd
	}
	go func() {
		defer close(rd.done)
		tick := time.NewTicker(time.Duration(float64(time.Second) / hz))
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t := time.Now()
			code, _, err := get(lr.read, lr.front.Base+"/api/v1/reports/"+lr.names[i%len(lr.names)])
			if err != nil || code != http.StatusOK {
				rd.bad++
				continue
			}
			rd.ms = append(rd.ms, ms(time.Since(t)))
		}
	}()
	return rd
}

// appendSchedule is the writer: plain write(2) of bytes rendered during
// set-up, each event at its due time, certificates before connections.
// It returns how late each event started and how many rows it wrote.
func (lr *liveRun) appendSchedule(t0 time.Time) (late []float64, rows int, err error) {
	p := lr.in.Plan
	files := make([][2]*os.File, len(lr.tailers)) // x509.log, ssl.log
	for d := range files {
		for i, name := range []string{"x509.log", "ssl.log"} {
			f, err := os.OpenFile(filepath.Join(lr.logDir(d), name), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return nil, 0, err
			}
			defer f.Close()
			files[d][i] = f
		}
	}
	late = make([]float64, 0, len(p.Events))
	for _, ev := range p.Events {
		time.Sleep(time.Until(t0.Add(ev.Due)))
		late = append(late, ms(time.Since(t0.Add(ev.Due))))
		for i, data := range [2][]byte{ev.X509, ev.SSL} {
			if len(data) == 0 {
				continue
			}
			if _, err := files[ev.Dir][i].Write(data); err != nil {
				return late, rows, err
			}
		}
		rows += ev.Certs
		if ev.Chunk >= 0 {
			rows += p.Chunks[ev.Chunk].Hi - p.Chunks[ev.Chunk].Lo
		}
	}
	return late, rows, nil
}

// liveWindow appends the schedule open loop while the prober measures
// freshness and the reader (if the workload has one) fetches reports.
func (lr *liveRun) liveWindow() error {
	p := lr.in.Plan
	cpu0 := make([]time.Duration, len(lr.all()))
	for i, d := range lr.all() {
		cpu0[i] = d.cpuNow()
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	stop := make(chan struct{})
	pr := lr.startProber(t0, stop)
	rd := lr.startReader(stop)

	late, liveRows, err := lr.appendSchedule(t0)
	wrote := time.Since(t0)
	if err == nil {
		// The window is over when the last chunk is visible, or has timed out.
		select {
		case <-pr.done:
		case <-time.After(applyTimeout):
		}
	}
	windowEnd := time.Now()
	close(stop)
	<-pr.done
	<-rd.done
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	var busy time.Duration
	for i, d := range lr.all() {
		busy += d.cpuNow() - cpu0[i]
	}

	r := lr.res
	r.Attempted += len(p.Chunks) + len(rd.ms) + rd.bad
	if n := len(p.Chunks) - len(pr.fresh); n > 0 {
		r.failN(n, "%d of %d chunks not applied within %v of the last append", n, len(p.Chunks), applyTimeout)
	}
	if rd.bad > 0 {
		r.failN(rd.bad, "%d report fetches failed during the live window", rd.bad)
	}
	for _, q := range []struct {
		name string
		q    float64
		out  map[string]float64
	}{
		{"freshness_p50_ms", 0.50, r.E2E},
		{"probe.freshness_p90_ms", 0.90, r.Layer},
		{"probe.freshness_p95_ms", 0.95, r.Layer},
	} {
		v, err := percentile(pr.fresh, q.q)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: %v (%d chunk samples)", q.name, err, len(pr.fresh)))
			continue
		}
		q.out[q.name] = v
	}
	// The mean counts every stall in proportion to the chunks it delayed;
	// unlike a high percentile it has no cliff where a stall's share of
	// the window crosses the percentile's tail.
	r.Layer["probe.freshness_mean_ms"] = mean(pr.fresh)
	r.Layer["probe.freshness_max_ms"] = maxOf(pr.fresh)
	r.Layer["probe.samples"] = float64(len(pr.fresh))
	r.Layer["probe.responses"] = float64(pr.probes)
	r.Layer["zeek.tail_lag_max_bytes"] = float64(pr.lagMax)
	if v, err := percentile(late, 0.95); err == nil {
		r.Layer["gen.late_p95_ms"] = v
		r.GenLateP95 = v
	}
	r.Layer["gen.late_max_ms"] = maxOf(late)
	r.Layer["gen.achieved_rows_per_s"] = float64(liveRows) / wrote.Seconds()
	// The cost of a row while tailing: CPU of every daemon over the live
	// window per row appended in it. Start-up, sweeps and restore have
	// their own metrics and stay out of this one.
	r.E2E["cpu_s_per_mrow"] = busy.Seconds() / float64(liveRows) * 1e6
	r.Layer["mtlsd.cpu_util_share"] = busy.Seconds() / windowEnd.Sub(t0).Seconds()
	r.Layer["reader.report_mean_ms"] = mean(rd.ms)
	r.Layer["reader.fetches"] = float64(len(rd.ms))
	return nil
}

// sweep fetches all 23 reports once, in name order, on the reader's
// connection, and returns the bodies and per-report latencies.
func (lr *liveRun) sweep(what string) (map[string][]byte, map[string]float64, float64) {
	bodies := make(map[string][]byte, len(lr.names))
	lat := make(map[string]float64, len(lr.names))
	var total float64
	for _, name := range lr.names {
		lr.res.Attempted++
		t := time.Now()
		code, body, err := get(lr.read, lr.front.Base+"/api/v1/reports/"+name)
		d := ms(time.Since(t))
		if err != nil || code != http.StatusOK {
			lr.res.failf("%s sweep: report %s: status %d, %v", what, name, code, err)
			continue
		}
		bodies[name], lat[name] = body, d
		total += d
	}
	return bodies, lat, total
}

// sweeps checks the drained state and times the cold sweep (which pays
// any pending rebuild or merge) and the warm sweep (state unchanged —
// what a report cache would answer from).
func (lr *liveRun) sweeps() {
	p := lr.in.Plan
	var conns, certs int
	for d := range p.ConnRows {
		conns += p.ConnRows[d]
		certs += p.CertRows[d]
	}
	drained := func(st daemonStats) bool {
		if st.ConnsIngested < uint64(conns) {
			return false
		}
		return lr.agg != nil || (st.CertsIngested >= uint64(certs) && st.lag() == 0)
	}
	st, _, _, err := waitStats(lr.probe, lr.front, lr.front.Base, lr.in.W.ProbeGap, applyTimeout, drained)
	lr.res.Attempted++
	if err != nil {
		lr.res.failf("drain: %v", err)
	} else if st.ConnsIngested != uint64(conns) || (lr.agg == nil && st.CertsIngested != uint64(certs)) {
		lr.res.failf("rows ingested ≠ rows written: conns %d/%d, certs %d/%d", st.ConnsIngested, conns, st.CertsIngested, certs)
	}
	if lr.agg != nil {
		// The aggregator counts rows as soon as a snapshot lands; give the
		// last delta one sync interval to be merged state, not news.
		time.Sleep(syncEvery)
	}

	var lat map[string]float64
	lr.cold, lat, lr.res.Layer["sweep.cold_ms"] = lr.sweep("cold")
	for name, d := range lat {
		lr.res.Layer["sweep."+name+"_ms"] = d
	}
	// Warm sweeps repeat until warmBudget is spent; each report counts
	// with its median latency over the sweeps, so a garbage collection or
	// a descheduling landing in one fetch does not move the sum.
	perReport := make(map[string][]float64, len(lr.names))
	start := time.Now()
	n := 0
	for ; n < warmSweepsMin || (n < warmSweepsMax && time.Since(start) < warmBudget); n++ {
		_, lat, _ := lr.sweep("warm")
		for name, d := range lat {
			perReport[name] = append(perReport[name], d)
		}
	}
	var warm float64
	for _, ds := range perReport {
		warm += median(ds)
	}
	lr.res.Layer["sweep.warm_ms"] = warm
	lr.res.Layer["sweep.warm_sweeps"] = float64(n)
}

// restart stops the first tailer with SIGTERM (drain, final checkpoint)
// and starts it again: ready is when its stats show every row it had, so
// the figure covers the final checkpoint, the context rebuild and the
// restore. The sweep that follows is the correctness check on the
// restored state.
func (lr *liveRun) restart() error {
	d := lr.tailers[0]
	want := uint64(lr.in.Plan.ConnRows[0])
	t := time.Now()
	u, err := d.stop(stopTimeout)
	lr.account(d, u, err)
	if err := d.start(); err != nil {
		return err
	}
	lr.res.Attempted++
	_, at, _, err := waitStats(lr.probe, d, d.Base, 2*time.Millisecond, catchUpTimeout,
		func(st daemonStats) bool { return st.ConnsIngested >= want })
	if err != nil {
		lr.res.failf("restart: %v", err)
	} else {
		lr.res.Layer["mtlsd.restart_ready_ms"] = ms(at.Sub(t))
	}
	if lr.agg != nil {
		// A restarted sensor has a new epoch; the aggregator re-syncs it
		// in full. Wait for that before reading the merged view.
		time.Sleep(2 * syncEvery)
	}
	lr.final, _, _ = lr.sweep("post-restart")
	return nil
}

// totals derives the resource metrics from the per-daemon accounting.
func (lr *liveRun) totals() {
	var cpu time.Duration
	var rss int64
	for _, d := range lr.all() {
		cpu += lr.cpu[d.Name]
		rss += lr.rss[d.Name]
	}
	lr.res.Layer["mtlsd.rss_peak_mb"] = float64(rss) / (1 << 20)
	lr.res.Layer["mtlsd.cpu_total_s"] = cpu.Seconds()
	var sensors time.Duration
	for _, d := range lr.tailers {
		sensors += lr.cpu[d.Name]
	}
	lr.res.Layer["mtlsd.tailer_cpu_s"] = sensors.Seconds() / float64(len(lr.tailers))
	if lr.agg != nil {
		lr.res.Layer["mtlsd.aggregator_cpu_s"] = lr.cpu[lr.agg.Name].Seconds()
	}
	lr.res.Layer["gen.rows"] = float64(lr.in.Plan.rows())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

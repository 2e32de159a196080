// Command mtlsd is the long-running monitor: it tails a directory of
// Zeek-style ssl.log / x509.log files, ingests new rows into the
// incremental analysis engine (internal/stream), and serves every table
// and figure of the paper as JSON over HTTP — continuously, without
// re-reading the logs from scratch.
//
// Endpoints (errors are a JSON envelope {"error": ..., "code": ...}):
//
//	GET /api/v1/healthz          liveness (200 "ok")
//	GET /api/v1/version          build info, role, supported snapshot schemas
//	GET /api/v1/stats            engine counters (ingested, dropped, rebuilds, ...)
//	GET /api/v1/reports          list of report names
//	GET /api/v1/reports/{name}   one report, e.g. .../reports/table1
//	GET /api/v1/snapshot         serialized engine state (-role sensor only)
//	GET /metrics                 Prometheus text exposition (?format=json for JSON)
//	GET /debug/pprof/...         runtime profiles (only with -pprof)
//
// The tailer sleeps until a log is written: on Linux it wakes on inotify
// events naming ssl.log or x509.log in -logs, and reads a row moments
// after it lands. -poll is the backstop — the longest a written row
// waits when no event arrives, and the only wake-up off Linux or when
// the watch cannot be set up or is lost (logged once, with the reason).
// tail_wakes_total{reason="event"|"tick"} on /metrics says which drove
// ingestion.
//
// Usage:
//
//	mtlsgen -out ./data                # produce logs (once, or keep appending)
//	mtlsd -logs ./data -listen :8411   # tail and serve
//	curl -s localhost:8411/api/v1/reports/table1 | jq .
//	curl -s localhost:8411/metrics     # ingest lag, rebuild churn, HTTP latency
//
// Every monitor and sensor runs one internal/stream.Engine: a router that
// holds the certificate roster and the §3.2 detector, one apply goroutine
// behind one bounded buffer over the retained connection window, and one
// merged view reports are read through. Its stream_* series on /metrics
// carry no shard label. -shards is still parsed and ignored, with one
// warning when it is set to anything but 1; it goes in the next release.
//
// The distributed tier stacks two roles on the same binary. A sensor is
// a monitor that additionally serializes its engine state over
// GET /api/v1/snapshot (full snapshots, or deltas from a cursor, or with
// follow=<ms> one stream of deltas written as it ingests); an aggregator
// tails nothing — it follows N sensors, one such stream each, and serves
// the merged analysis through the same /api/v1 report surface:
//
//	mtlsd -role sensor -logs ./site-a -listen :8411
//	mtlsd -role sensor -logs ./site-b -listen :8412
//	mtlsd -role aggregator -sensors localhost:8411,localhost:8412 -listen :8400
//	curl -s localhost:8400/api/v1/reports/table1 | jq .
//
// -sync-every is a followed sensor's heartbeat and the aggregator's
// reconnect interval. An unreachable sensor backs off exponentially while
// the aggregator keeps serving its last-good merge; per-sensor cursors,
// sync ages, and errors appear in /api/v1/stats and /metrics.
//
// With -checkpoint the engine state is periodically persisted together
// with the log-file byte offsets; on restart mtlsd restores the state
// and resumes tailing exactly where it stopped, so reports after the
// restart match an uninterrupted run. The checkpoint is a directory: one
// segment chain, each interval appending only what changed, committed by
// the rename of one MANIFEST that also holds the offsets. That is the one
// shape a checkpoint has, and the previous release writes it too: it is
// restored and continued in place. Any other shape (gob frames, a chain
// per shard, a single file, a directory committed by manifest.json, an
// older MANIFEST) is refused, untouched, with a message naming the build
// that rewrites it, and mtlsd does not start. Every shutdown
// path — SIGINT/SIGTERM, or the HTTP server failing — drains the tailer
// and writes a final checkpoint before exiting; nothing short of a kill
// loses tailed state.
//
// The code is split by role: main.go (flags, dispatch, the shared
// serve/shutdown sequence), monitor.go (monitor and sensor: engine,
// tailer loop, checkpoints), tail.go (interleaved catch-up over the two
// logs), watch*.go (the file events the tailer loop wakes on),
// aggregator.go, and http.go (routes, stats, instrumentation).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/zeek"
)

// options carries every flag so run is testable without a real command
// line. Tests start from defaultOptions, so they and the command line
// share one set of defaults.
type options struct {
	logs          string
	listen        string
	poll          time.Duration
	checkpoint    string
	ckptEvery     time.Duration
	retention     time.Duration
	buffer        int
	drop          bool
	spec          string
	scale         int
	seed          uint64
	shards        int
	pprof         bool
	logLevel      string
	strict        bool
	quarantine    string
	quarantineMax int64
	role          string
	sensors       string
	syncEvery     time.Duration
	store         string
	storeDir      string
	hotBytes      int64
}

// defaultOptions is what a command line with no flags means.
func defaultOptions() options {
	return options{
		listen:        "127.0.0.1:8411",
		poll:          2 * time.Second,
		ckptEvery:     time.Minute,
		shards:        1,
		logLevel:      "info",
		quarantineMax: zeek.DefaultQuarantineMaxBytes,
		role:          "monitor",
		syncEvery:     5 * time.Second,
		store:         "memory",
	}
}

// registerFlags binds every flag to o; each flag's default is the value
// o holds on entry.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.logs, "logs", o.logs, "directory with ssl.log/x509.log to tail (required)")
	fs.StringVar(&o.listen, "listen", o.listen, "HTTP listen address")
	fs.DurationVar(&o.poll, "poll", o.poll, "backstop poll interval: the longest a written row waits when no file event arrives")
	fs.StringVar(&o.checkpoint, "checkpoint", o.checkpoint, "checkpoint directory (restore on start, persist periodically)")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", o.ckptEvery, "checkpoint interval (0 = only on shutdown)")
	fs.DurationVar(&o.retention, "retention", o.retention, "connection retention window (0 = keep everything)")
	fs.IntVar(&o.buffer, "buffer", o.buffer, "ingest buffer size in batches (0 = engine default)")
	fs.BoolVar(&o.drop, "drop", o.drop, "shed events when the buffer is full instead of blocking the tailer")
	fs.StringVar(&o.spec, "spec", o.spec, "scenario spec YAML the generator used (\"-\" = stdin; empty = built-in campus spec)")
	fs.IntVar(&o.scale, "scale", o.scale, "context scale divisor (must match the generator's)")
	fs.Uint64Var(&o.seed, "seed", o.seed, "context seed (must match the generator's)")
	fs.IntVar(&o.shards, "shards", o.shards, "ignored: the engine has one window (goes in the next release)")
	fs.BoolVar(&o.pprof, "pprof", o.pprof, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.logLevel, "log-level", o.logLevel, "log level: debug, info, warn, error")
	fs.BoolVar(&o.strict, "strict", o.strict, "fail-stop on malformed log rows instead of quarantining them")
	fs.StringVar(&o.quarantine, "quarantine", o.quarantine, "append rejected rows to this file (permissive mode only)")
	fs.Int64Var(&o.quarantineMax, "quarantine-max-bytes", o.quarantineMax,
		"quarantine size cap; overflow rows are dropped and counted (0 = unlimited)")
	fs.StringVar(&o.store, "store", o.store, "retained-connection store: memory, or disk (hot tail in RAM, older connections spilled under -store-dir; certificates always stay resident)")
	fs.StringVar(&o.storeDir, "store-dir", o.storeDir, "scratch directory for the disk store (required with -store disk)")
	fs.Int64Var(&o.hotBytes, "hot-bytes", o.hotBytes, "disk store budget: estimated bytes of hot connections in the window (0 = store default)")
	fs.StringVar(&o.role, "role", o.role, "monitor, sensor (monitor + /api/v1/snapshot), or aggregator (pulls -sensors)")
	fs.StringVar(&o.sensors, "sensors", o.sensors, "comma-separated sensor addresses (aggregator role only)")
	fs.DurationVar(&o.syncEvery, "sync-every", o.syncEvery, "heartbeat and reconnect interval of a followed sensor (aggregator role)")
}

func main() {
	o := defaultOptions()
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	os.Exit(run(context.Background(), o, newLogger(os.Stderr, o.logLevel), nil))
}

// run dispatches on -role; main exits with its return value. Keeping the
// daemon body off main keeps every teardown step (engine close, final
// checkpoint) on the normal return path — a log.Fatal exit would skip
// them and lose hours of tailed state to a port conflict. ready, when
// non-nil, is invoked with the bound listen address once the HTTP socket
// is open (tests listen on :0).
func run(ctx context.Context, o options, logger *slog.Logger, ready func(addr string)) int {
	if o.shards != 1 {
		logger.Warn("-shards is ignored: the engine has one window, and the flag goes in the next release", "shards", o.shards)
	}
	switch o.role {
	case "monitor", "sensor":
		return runMonitor(ctx, o, logger, ready)
	case "aggregator":
		return runAggregator(ctx, o, logger, ready)
	default:
		logger.Error("-role must be monitor, sensor, or aggregator", "role", o.role)
		return 2
	}
}

// serve is the lifecycle both roles share once their state exists: run
// work (the role's producer — tailer or sensor pulls) on a context that
// SIGINT/SIGTERM cancels, serve h on ln, and block until a signal
// arrives or the HTTP server dies underneath us. Either way work is then
// cancelled and waited for — it owns whatever must happen last with its
// state, such as the final checkpoint — before the server shuts down.
// onShutdown, when non-nil, runs as the shutdown begins: it ends the
// responses that would otherwise stay open (a sensor's followed
// streams). Returns the exit code.
func serve(ctx context.Context, ln net.Listener, h http.Handler, logger *slog.Logger,
	ready func(addr string), work func(context.Context), onShutdown func()) int {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	workDone := make(chan struct{})
	go func() {
		defer close(workDone)
		work(ctx)
	}()

	srv := &http.Server{Handler: h}
	if onShutdown != nil {
		srv.RegisterOnShutdown(onShutdown)
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}

	code := 0
	select {
	case err := <-srvErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("http server", "err", err)
			code = 1
		}
		stop() // release work
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
	}
	<-workDone

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return code
}

// contextInput rebuilds the deterministic analysis context (trust
// bundle, CT log, association map) from the scenario spec the generator
// compiled — or the built-in campus spec — with the -scale/-seed flag
// overrides applied the same way mtlsgen applies them, so the daemon
// agrees with whatever wrote the logs.
func contextInput(o options) (*core.Input, error) {
	spec := mtls.CampusSpec()
	if o.spec != "" {
		var err error
		if spec, err = mtls.LoadSpec(o.spec); err != nil {
			return nil, err
		}
	}
	build, err := mtls.Generate(spec, mtls.WithScale(o.scale), mtls.WithSeed(o.seed))
	if err != nil {
		return nil, err
	}
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	return in, nil
}

// newLogger builds the daemon's structured logger.
func newLogger(w *os.File, level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		lvl = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl}))
}

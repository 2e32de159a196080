package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// monitor is the tailing half of the monitor and sensor roles: two log
// tails feeding one engine, checkpointed on a schedule.
type monitor struct {
	o      options
	logger *slog.Logger
	reg    *metrics.Registry
	eng    *stream.Engine
	ssl    *zeek.SSLTail
	x509   *zeek.X509Tail
	// watch opens the file events the tailer loop wakes on (openWatch;
	// tests swap it to run on the ticker alone).
	watch func(dir string, logs ...string) (*logWatch, error)

	ckptWrites, ckptErrs *metrics.Counter
	wakeEvent, wakeTick  *metrics.Counter
}

// newMonitor builds the tailers over o.logs and registers the loop's
// series in reg; the caller attaches the engine.
func newMonitor(o options, logger *slog.Logger, reg *metrics.Registry, zopts zeek.Options) *monitor {
	const wakes, wakesHelp = "tail_wakes_total", "tailer wake-ups, by what woke the tailer"
	m := &monitor{
		o: o, logger: logger, reg: reg,
		watch:      openWatch,
		ckptWrites: reg.Counter("mtlsd_checkpoint_writes_total", "checkpoints attempted by the daemon"),
		ckptErrs:   reg.Counter("mtlsd_checkpoint_errors_total", "checkpoint attempts that failed"),
		wakeEvent:  reg.Counter(wakes, wakesHelp, "reason", "event"),
		wakeTick:   reg.Counter(wakes, wakesHelp, "reason", "tick"),
	}
	m.ssl, m.x509 = zeek.NewLogTails(o.logs)
	m.ssl.Instrument(reg)
	m.x509.Instrument(reg)
	m.ssl.SetOptions(zopts)
	m.x509.SetOptions(zopts)
	return m
}

// runMonitor is the -role monitor / sensor body. A sensor is a monitor
// whose engine additionally stamps every admitted event with an export
// sequence, so /api/v1/snapshot can serve cursor deltas.
func runMonitor(ctx context.Context, o options, logger *slog.Logger, ready func(addr string)) int {
	switch {
	case o.sensors != "":
		logger.Error("-sensors requires -role aggregator")
		return 2
	case o.logs == "":
		logger.Error("-logs is required")
		return 2
	case o.store == "disk" && o.storeDir == "":
		logger.Error("-store disk requires -store-dir")
		return 2
	case o.quarantine != "" && o.strict:
		logger.Error("-quarantine is meaningless with -strict (strict mode never skips rows)")
		return 2
	}

	// Bind the socket first: a port conflict must fail fast, before any
	// state exists that a failed exit could lose.
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		logger.Error("listen", "addr", o.listen, "err", err)
		return 1
	}
	defer ln.Close() // error paths; after serve it is closed already

	reg := metrics.New()
	runtimeCounters(reg)
	in, err := contextInput(o)
	if err != nil {
		logger.Error("build analysis context", "err", err)
		return 2
	}

	// Malformed-row policy. Permissive (the default) quarantines bad rows
	// and keeps tailing — one corrupt line must not wedge a monitor that
	// runs for months; -strict restores fail-stop for operators who would
	// rather halt than skip. RejectTotals pre-registers the zero-valued
	// rejection series so /metrics shows the family from boot.
	zopts := zeek.Options{Strict: o.strict, Metrics: reg}
	if o.quarantine != "" {
		q, err := zeek.OpenQuarantine(o.quarantine)
		if err != nil {
			logger.Error("open quarantine", "path", o.quarantine, "err", err)
			return 1
		}
		defer q.Close()
		q.SetMaxBytes(o.quarantineMax)
		q.Instrument(reg)
		zopts.Quarantine = q
	}
	zeek.RejectTotals(reg)

	m := newMonitor(o, logger, reg, zopts)

	scfg := stream.Config{Input: in, Buffer: o.buffer, Retention: o.retention, Metrics: reg,
		TrackExport: o.role == "sensor",
		Store:       o.store, StoreDir: o.storeDir, HotBytes: o.hotBytes}
	if o.drop {
		scfg.Policy = stream.Drop
	}
	eng, cursor, err := openEngine(scfg, o.checkpoint)
	if err != nil {
		logger.Error("open engine", "checkpoint", o.checkpoint, "err", err)
		return 1
	}
	defer eng.Close()
	m.eng = eng
	if cursor != nil {
		m.ssl.SetOffset(cursor["ssl.log"])
		m.x509.SetOffset(cursor["x509.log"])
		st := eng.Stats()
		logger.Info("restored checkpoint", "path", o.checkpoint,
			"conns", st.ConnsIngested, "certs", st.UniqueCerts,
			"ssl_offset", cursor["ssl.log"], "x509_offset", cursor["x509.log"])
	}

	info := daemonInfo{role: o.role}
	var onShutdown func()
	if o.role == "sensor" {
		info.sensor = distrib.NewSensor(eng, reg, logger)
		onShutdown = info.sensor.Close
	}
	logger.Info("serving", "addr", ln.Addr().String(), "role", o.role, "pprof", o.pprof)
	return serve(ctx, ln, newMux(eng, reg, logger, o.pprof, info), logger, ready, m.run, onShutdown)
}

// openEngine restores the engine from the checkpoint at path, or starts
// a fresh one when path is empty or holds no checkpoint yet — the one
// case the restore reports as os.ErrNotExist; a checkpoint whose manifest
// names a file that is gone, or one of a shape this release no longer
// reads, is an error. The cursor is nil for a fresh engine.
func openEngine(cfg stream.Config, path string) (*stream.Engine, map[string]int64, error) {
	if path != "" {
		eng, cursor, err := stream.Restore(cfg, path)
		if err == nil {
			return eng, cursor, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("restore checkpoint: %w", err)
		}
	}
	eng, err := stream.New(cfg)
	return eng, nil, err
}

// run is the tailer: the single producer goroutine, then the final
// checkpoint once ctx is done and nothing can produce any more.
// Certificates are polled before connections within each round so
// enrichment resolves chains on first try (out-of-order arrivals still
// converge, via a replay when a read came between). Each Poll consumes
// at most one chunk of backlog; catchUp interleaves the two logs
// chunk-for-chunk so a hot file cannot starve the other, and caps the
// rounds per wake so checkpoints stay on schedule.
//
// The loop sleeps until a log is written: it wakes on a file event from
// the watch of -logs, or on the -poll ticker, whichever comes first; the
// ticker is the backstop for a platform without file events and for a
// watch that cannot be set up or is lost, which is logged once.
func (m *monitor) run(ctx context.Context) {
	srcs := []*tailSource{
		m.source("x509.log", func() (int, bool, error) {
			certs, err := m.x509.Poll()
			inRuns(certs, m.eng.IngestCertBatch)
			return len(certs), m.x509.More(), err
		}),
		m.source("ssl.log", func() (int, bool, error) {
			conns, err := m.ssl.Poll()
			inRuns(conns, m.eng.IngestConnBatch)
			return len(conns), m.ssl.More(), err
		}),
	}
	// The watch is up before the first catch-up, so a row written while
	// that catch-up runs still wakes the loop.
	var wake <-chan struct{}
	w, err := m.watch(m.o.logs, "ssl.log", "x509.log")
	if err != nil {
		m.tickerOnly(err)
	} else {
		defer w.Close()
		wake = w.C
	}
	ticker := time.NewTicker(m.o.poll)
	defer ticker.Stop()
	var lastCkpt time.Time
	for ctx.Err() == nil {
		counts, behind := catchUp(ctx, catchUpRounds, srcs)
		if nCerts, nConns := counts[0], counts[1]; nCerts > 0 || nConns > 0 {
			m.logger.Debug("ingested", "conns", nConns, "certs", nCerts)
		}
		if m.o.ckptEvery > 0 && time.Since(lastCkpt) >= m.o.ckptEvery {
			m.checkpoint(false)
			lastCkpt = time.Now()
		}
		if behind {
			continue // the round cap ended the wake, not the logs
		}
		select {
		case <-ctx.Done():
		case <-ticker.C:
			m.wakeTick.Inc()
		case _, ok := <-wake:
			if !ok {
				m.tickerOnly(w.err)
				wake = nil
				continue
			}
			m.wakeEvent.Inc()
		}
	}
	m.checkpoint(true) // no producer left; offsets are final
	m.ssl.Close()
	m.x509.Close()
}

// tickerOnly says, once, that the tailer has no file events to wake on
// and waits out the -poll ticker instead.
func (m *monitor) tickerOnly(err error) {
	m.logger.Warn("no file events: the tailer wakes on the -poll ticker alone",
		"dir", m.o.logs, "reason", err, "poll", m.o.poll)
}

// source wraps one log's poll with its retry schedule. Persistent poll
// errors (an unreadable disk, or strict mode parked on a malformed row)
// back off exponentially instead of burning a full-rate retry loop: the
// offset does not advance, so retrying every poll interval re-reads the
// same failure.
func (m *monitor) source(file string, poll func() (int, bool, error)) *tailSource {
	errs := m.reg.Counter(tailErrMetric, tailErrHelp, "file", file)
	return &tailSource{bo: backoff.New(m.o.poll), poll: poll,
		fail: func(err error, wait time.Duration) {
			errs.Inc()
			m.logger.Warn("tail "+file, "err", err, "backoff", wait)
		}}
}

// inRuns hands one Poll's records to the engine in
// zeek.DefaultBatchSize runs, so one channel hop (and one lock
// acquisition downstream) amortizes over each run.
func inRuns[T any](recs []T, ingest func([]T) int) {
	for lo := 0; lo < len(recs); lo += zeek.DefaultBatchSize {
		ingest(recs[lo:min(lo+zeek.DefaultBatchSize, len(recs))])
	}
}

// checkpoint drains the engine (so the state covers everything the
// tails have read) and persists it together with the tail offsets. Only
// the tailer goroutine produces events, and it is the caller here, so
// after Drain the offsets are exactly consistent with the applied state.
func (m *monitor) checkpoint(final bool) {
	if m.o.checkpoint == "" {
		return
	}
	m.ckptWrites.Inc()
	m.eng.Drain()
	err := m.eng.WriteCheckpoint(m.o.checkpoint, map[string]int64{
		"ssl.log":  m.ssl.Offset(),
		"x509.log": m.x509.Offset(),
	})
	if err != nil {
		m.ckptErrs.Inc()
		m.logger.Error("checkpoint", "path", m.o.checkpoint, "final", final, "err", err)
	} else if final {
		m.logger.Info("final checkpoint written", "path", m.o.checkpoint)
	}
}

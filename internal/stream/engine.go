// Package stream is the incremental analysis engine: it consumes
// core.ConnRecord / core.CertRecord events one at a time — as a border
// tap or log tailer produces them — and keeps the enriched joint
// SSL×X509 state of the paper's pipeline current, so any table or figure
// can be materialized at any point mid-stream. cmd/mtlsd wraps it in a
// long-running daemon.
//
// # Equivalence contract
//
// Feeding a finite dataset through the engine (certificates and
// connections in any interleaving, connections in dataset order) and
// draining it produces an Analysis deeply equal to mtls.Analyze on the
// same input. The engine shares the batch pipeline's implementation
// rather than reimplementing it: enrichment goes through core.Builder
// (the same enricher the serial batch path runs) and interception
// filtering through interception.Stream (which Detector.Run itself wraps).
//
// # Retroactive evidence and replays
//
// The apply loop stores raw state only: the certificate roster, the
// retained connection window, the §3.2 detector. Reports are read through
// a one-source core.MergedView over that state — the same materializer a
// sharded engine and an aggregator use — whose Builder lives as long as
// the engine and, on a read after new events, enriches those events and
// nothing else. Late evidence can make appending differ from what batch
// would compute, where all data is present up front; the view then
// replays the retained window through a fresh Builder, for exactly the
// reasons core.ReplayReason names: the §3.2 exclusion set grew (an issuer
// confirmed as interception after its certificates were admitted), a
// certificate arrived after a read had enriched a connection that named
// it (a certificate that is late but lands before the next read costs
// nothing: a catch-up adds certificates ahead of connections), or
// retention evicted. Replays are counted in Stats.Rebuilds and, by
// reason, in stream_merge_replays_total. A read holds the engine's state
// lock only while it snapshots what is new; the report scan itself runs
// beside ingestion.
//
// # Bounded memory
//
// Connection state is the unbounded dimension of a long-running monitor;
// Config.Retention bounds it with a sliding time window over connection
// timestamps. Eviction drops raw connections older than the watermark
// minus the retention; the next read replays, so reports then describe
// the retained window. The certificate roster and the interception
// detector are cumulative by design: certificates are the deduplicated
// entity the paper counts, and evicted connections must still count
// toward issuer confirmation.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/metrics"
	"repro/internal/psl"
	"repro/internal/store"
)

// Policy selects what Ingest does when the bounded buffer is full.
type Policy int

const (
	// Block applies backpressure: Ingest waits for buffer space. This is
	// the lossless default — right when the producer is a log tailer that
	// can simply fall behind.
	Block Policy = iota
	// Drop sheds load: Ingest discards the event, counts it in
	// Stats.Dropped, and returns false. Right when the producer is a live
	// tap that must never stall the capture path.
	Drop
)

// Config configures an Engine.
type Config struct {
	// Input is the analysis context (trust bundle, CT log, association
	// map, netsim plan, months, workers). Input.Raw is ignored — the
	// engine accumulates its own dataset from the ingested events.
	Input *core.Input
	// Buffer is the ingest channel capacity (default 1024).
	Buffer int
	// Policy is the full-buffer behavior (default Block).
	Policy Policy
	// Retention bounds connection state to a sliding window of this
	// length behind the newest connection timestamp. 0 retains
	// everything (required for batch equivalence).
	Retention time.Duration
	// EvictEvery is how many connection events elapse between eviction
	// sweeps when Retention is set (default 1024).
	EvictEvery int
	// Metrics receives the engine's operational series (ingest counters,
	// queue latency, merge/materialize/evict durations, buffer
	// occupancy). Nil disables exposition; the engine still instruments
	// into a private registry so call sites stay unconditional.
	Metrics *metrics.Registry

	// Store selects where the retained connection window (a store.Window)
	// lives: "" or "memory" keeps it in RAM (the default), "disk" gives it
	// a cold tier — a hot tail in RAM under HotBytes, the older remainder
	// spilled to a segment file under StoreDir — so the window can exceed
	// RAM. The certificate roster is resident either way. A tiered engine
	// trades materialization cost for bounded ingest RSS: every report
	// replays the window, decoding the spilled records, and lets the
	// enriched state go when it returns (kept, it would pin every record
	// the window spilled) — at any shard count.
	Store string
	// StoreDir is the disk store's scratch directory (required when
	// Store is "disk"; recreated on start — durability is the
	// checkpoint's job, not the store's).
	StoreDir string
	// HotBytes bounds the disk store's in-RAM hot connections (estimated
	// record bytes; default store.DefaultHotBytes). Under NewSharded it
	// is the deployment's budget, split evenly across the shards.
	HotBytes int64

	// TrackExport enables Export — the cursor-addressable snapshot a
	// sensor serves to an aggregator. Every engine stamps the connections
	// it applies with an ingest sequence; under TrackExport first-observed
	// certificates draw from the same number space (so a single cursor
	// covers both), the numbering is scoped by an epoch, and checkpoints
	// carry it so cursors survive a restart. Off by default: the
	// bookkeeping is one map insert per unique certificate.
	TrackExport bool

	// routed marks a shard behind a router (NewSharded at n > 1). It
	// stamps connections with the sequences arriving in the router's
	// batches instead of its own counter, so the deployment can k-way
	// merge shard-local streams back into the single-stream order, and it
	// keeps raw state only: reports are materialized from the merged
	// view, never from a shard.
	routed bool
	// metricLabels are alternating key/value pairs appended to every
	// stream_* series this engine registers (e.g. "shard", "3"), so the
	// shards of one deployment expose distinguishable series in one
	// registry.
	metricLabels []string
}

// Stats is the engine's operational counters, served by mtlsd /stats.
type Stats struct {
	ConnsIngested uint64 // connection events applied
	CertsIngested uint64 // certificate events applied (incl. duplicates)
	Dropped       uint64 // events shed under Policy Drop
	Rejected      uint64 // invalid events refused at the ingest boundary
	Retained      int    // connections currently in the window
	Evicted       uint64 // connections dropped by retention
	Rebuilds      uint64 // merged-view replays since the process started
	Dirty         bool   // state changed since the last read caught up

	UniqueCerts         int // certificate roster size
	ExcludedCerts       int // §3.2 interception exclusions so far
	InterceptionIssuers int // confirmed interception issuers so far
	PendingCerts        int // conns parked awaiting their leaf certificate

	Watermark      time.Time // newest connection timestamp seen
	LastCheckpoint time.Time // zero until the first checkpoint
	CheckpointAge  float64   // seconds since LastCheckpoint (0 if none)
}

// event is one ingest-queue entry: a batch of records or a flush
// barrier. enq stamps when the producer enqueued it, so the apply loop
// can observe queue latency.
type event struct {
	batch *batch
	flush chan struct{}
	enq   time.Time
}

// Engine is the incremental analysis engine. Create with New, feed with
// IngestConn/IngestCert, materialize with Analysis or Report.
type Engine struct {
	cfg  Config
	det  *interception.Detector
	ch   chan event
	done chan struct{}

	sendMu   sync.RWMutex // guards closed + ch against Close
	closed   bool
	dropped  atomic.Uint64
	rejected atomic.Uint64

	m *engineMetrics

	mu sync.Mutex // guards all state below

	// stateVer counts report-visible state changes (roster growth,
	// connection applies, evictions, restores). The sharded merge cache
	// reads it without the state lock to decide whether its materialized
	// view is still current; written only under mu.
	stateVer atomic.Uint64

	// Raw state — ground truth, never invalidated: the certificate roster
	// (first observation wins; cumulative, resident, pointers stable for
	// the engine's lifetime) and the same certificates as an append-only
	// log in admission order — so "the roster since" a checkpoint commit
	// or a merged view's cursor is a slice suffix, readable after the
	// state lock is released — the retained connection window, every
	// record under its ingest sequence, and the cumulative §3.2 detector.
	roster    map[ids.Fingerprint]*certmodel.CertInfo
	rosterLog []*certmodel.CertInfo
	st        *store.Window
	icpt      *interception.Stream

	// nextSeq is one past every sequence stamped so far: the engine's own
	// counter, or trailing the router's stamps on a shard. The rest is
	// export-cursor state, meaningful only under cfg.TrackExport: the
	// per-fingerprint admission sequence, the same roster as an
	// append-only log ascending by that sequence (Export binary-searches
	// its suffix), and the epoch that scopes cursors to this sequence
	// numbering (a fresh engine gets a fresh epoch, so a cursor taken
	// against a predecessor is detectably stale rather than silently
	// wrong).
	nextSeq  uint64
	certSeqs map[ids.Fingerprint]uint64
	certLog  []ExportCert
	epoch    uint64

	// view materializes reports from the raw state above; nil on a routed
	// shard, whose Sharded reads all shards through one view.
	view *core.MergedView

	connsIngested uint64
	certsIngested uint64
	evicted       uint64
	sinceEvict    int
	watermark     time.Time
	lastCkpt      time.Time

	// Checkpoint bookkeeping (still under mu), against this engine's
	// chain: sequences below ckptMark and roster-log entries below
	// ckptCerts are covered by committed segments; ckptCutoff is the
	// latest eviction cutoff applied, which a delta records so restore can
	// replay the eviction against earlier segments.
	ckptMark   uint64
	ckptCerts  int
	ckptCutoff time.Time

	// ckpt owns the checkpoint directory; nil on a routed shard, whose
	// chain its Sharded commits.
	ckpt *checkpointer
}

// New starts an engine. Call Close to stop it.
func New(cfg Config) (*Engine, error) {
	if cfg.Input == nil {
		return nil, fmt.Errorf("stream: Config.Input is required")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.EvictEvery <= 0 {
		cfg.EvictEvery = 1024
	}
	st, err := store.Open(cfg.Store, cfg.StoreDir, cfg.HotBytes)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	e := &Engine{
		cfg:    cfg,
		ch:     make(chan event, cfg.Buffer),
		done:   make(chan struct{}),
		roster: make(map[ids.Fingerprint]*certmodel.CertInfo),
		st:     st,
	}
	if cfg.TrackExport {
		e.certSeqs = make(map[ids.Fingerprint]uint64)
		e.epoch = newEpoch()
	}
	// The detector must match the batch preprocess exactly (core uses
	// MinDomains 2 over the default PSL).
	e.det = &interception.Detector{
		Bundle: cfg.Input.Bundle, CT: cfg.Input.CT, PSL: psl.Default(), MinDomains: 2,
	}
	e.icpt = e.det.NewStream(e.lookupCert)
	e.m = newEngineMetrics(cfg.Metrics, e)
	if !cfg.routed {
		e.view = &core.MergedView{
			Input:    cfg.Input,
			Versions: func() []uint64 { return []uint64{e.stateVer.Load()} },
			Capture:  e.capture,
			OnMerge:  e.m.onMerge,
		}
		e.ckpt = &checkpointer{engines: []*Engine{e}, dur: e.m.checkpointDur, compactDur: e.m.compactDur}
	}
	go e.run()
	return e, nil
}

// lookupCert is the detector's certificate source: the raw roster.
func (e *Engine) lookupCert(fp ids.Fingerprint) *certmodel.CertInfo { return e.roster[fp] }

// putCertLocked admits c into the roster, first observation wins; it
// reports whether the fingerprint was new.
func (e *Engine) putCertLocked(c *certmodel.CertInfo) bool {
	if _, ok := e.roster[c.Fingerprint]; ok {
		return false
	}
	e.roster[c.Fingerprint] = c
	e.rosterLog = append(e.rosterLog, c)
	e.m.rosterSize.Set(float64(len(e.roster)))
	return true
}

// seqTracked reports whether anyone outside this process reads the
// connection sequences — a router merging shards, an aggregator holding
// a cursor. Only then do checkpoints carry the sequence column; a plain
// engine's numbers are renumbered in replay order on restore.
func (e *Engine) seqTracked() bool { return e.cfg.routed || e.cfg.TrackExport }

// IngestConn feeds one connection event — a batch of one over
// IngestConnBatch. The record is copied; the caller may reuse it.
// Returns false when the event was rejected as invalid, dropped (Policy
// Drop with a full buffer), or the engine is closed.
//
// A nil record or a weight below 1 is rejected up front (counted in
// Stats.Rejected): the parsers guarantee weight >= 1, but the engine is
// also fed by taps and tests, and a zero/negative weight would silently
// corrupt every weighted percentage the reports derive.
func (e *Engine) IngestConn(rec *core.ConnRecord) bool {
	if rec == nil {
		e.reject()
		return false
	}
	return e.IngestConnBatch([]core.ConnRecord{*rec}) == 1
}

// IngestCert feeds one certificate event — a batch of one over
// IngestCertBatch. A nil record, a nil certificate, or an empty
// fingerprint is rejected (counted in Stats.Rejected) — an unkeyed
// certificate could never be resolved from a chain and would only poison
// the roster.
func (e *Engine) IngestCert(rec *core.CertRecord) bool {
	if rec == nil {
		e.reject()
		return false
	}
	return e.IngestCertBatch([]core.CertRecord{*rec}) == 1
}

// reject counts one invalid event refused at the ingest boundary.
func (e *Engine) reject() {
	e.rejected.Add(1)
	e.m.rejected.Inc()
}

// send enqueues ev unless the engine is closed. A non-blocking send
// (Policy Drop; only batches travel that way) that finds the buffer full
// sheds the whole batch, counting every carried event in Stats.Dropped.
func (e *Engine) send(ev event, block bool) bool {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.closed {
		return false
	}
	if block {
		e.ch <- ev
		return true
	}
	select {
	case e.ch <- ev:
		return true
	default:
		n := uint64(len(ev.batch.certs) + len(ev.batch.conns))
		e.dropped.Add(n)
		e.m.dropped.Add(n)
		return false
	}
}

// Drain blocks until every event ingested before the call has been
// applied. It is never dropped, regardless of policy.
func (e *Engine) Drain() {
	done := make(chan struct{})
	if !e.send(event{flush: done}, true) {
		return
	}
	<-done
}

// Close drains the queue, stops the apply loop, and makes further
// ingests return false. Materialization remains available.
func (e *Engine) Close() {
	e.sendMu.Lock()
	if e.closed {
		e.sendMu.Unlock()
		return
	}
	e.closed = true
	close(e.ch)
	e.sendMu.Unlock()
	<-e.done
}

// run is the single apply goroutine. It batches queued events under one
// lock acquisition to keep lock churn off the hot path.
func (e *Engine) run() {
	defer close(e.done)
	ch := e.ch // read once: the loop owns this queue for life
	for ev := range ch {
		e.mu.Lock()
		e.applyLocked(ev)
	drain:
		for i := 0; i < 256; i++ {
			select {
			case next, ok := <-ch:
				if !ok {
					e.mu.Unlock()
					return
				}
				e.applyLocked(next)
			default:
				break drain
			}
		}
		e.mu.Unlock()
	}
}

func (e *Engine) applyLocked(ev event) {
	if ev.flush != nil {
		close(ev.flush)
		return
	}
	e.m.applyLatency.Since(ev.enq)
	e.applyBatchLocked(ev.batch)
}

// applyCertLocked admits one certificate: first observation of a
// fingerprint joins the roster (as zeek.Dataset.AddCert would) and wakes
// any parked detector observations.
func (e *Engine) applyCertLocked(c *certmodel.CertInfo) {
	e.certsIngested++
	e.m.certsIngested.Inc()
	if !e.putCertLocked(c) {
		return // first observation wins
	}
	e.stateVer.Add(1)
	if e.cfg.TrackExport {
		e.certSeqs[c.Fingerprint] = e.nextSeq
		e.certLog = append(e.certLog, ExportCert{Seq: e.nextSeq, Cert: c})
		e.nextSeq++
	}
	e.icpt.ObserveCert(c)
}

// applyConnLocked admits one connection: it is retained raw (the window
// every report is materialized from) and observed by the interception
// detector.
func (e *Engine) applyConnLocked(rec *core.ConnRecord, seq uint64) {
	e.connsIngested++
	e.m.connsIngested.Inc()
	e.stateVer.Add(1)
	if rec.TS.After(e.watermark) {
		e.watermark = rec.TS
	}
	if !e.cfg.routed {
		seq = e.nextSeq
	}
	e.nextSeq = seq + 1
	e.icpt.Observe(e.st.AppendConn(rec, seq))

	if e.cfg.Retention > 0 {
		e.sinceEvict++
		if e.sinceEvict >= e.cfg.EvictEvery {
			e.sinceEvict = 0
			e.evictLocked()
		}
	}
	e.m.retained.Set(float64(e.st.ConnCount()))
}

// evictLocked drops connections that fell out of the retention window.
// The store allocates fresh backing arrays because enriched views hold
// pointers into the old ones. The cutoff is remembered so the next
// checkpoint delta can replay the eviction on restore.
func (e *Engine) evictLocked() {
	defer e.m.evictDur.Since(time.Now())
	cutoff := e.watermark.Add(-e.cfg.Retention)
	dropped := uint64(e.st.EvictBefore(cutoff))
	if dropped == 0 {
		return
	}
	if cutoff.After(e.ckptCutoff) {
		e.ckptCutoff = cutoff
	}
	e.evicted += dropped
	e.m.evicted.Add(dropped)
	e.stateVer.Add(1)
}

// capture is the view's one source: the roster-log entries and window
// suffix past the cursor, with the version, loss count and §3.2 verdict
// they were read under. All of it stays readable once the lock is
// released (roster pointers are immutable, appends land past the captured
// lengths, eviction swaps in fresh arrays, a verdict is a new value when
// it moves); on a tiered window the records are copies made here, which
// is what Copies tells the view.
func (e *Engine) capture(since []core.MergeCursor) core.MergeCapture {
	e.mu.Lock()
	defer e.mu.Unlock()
	conns, seqs := e.st.Snapshot(since[0].Seq)
	return core.MergeCapture{
		Shards:   []core.ShardState{{Certs: e.rosterLog[since[0].Certs:], Conns: conns, Seqs: seqs}},
		Versions: []uint64{e.stateVer.Load()},
		Lost:     []uint64{e.evicted},
		Verdict:  e.icpt.Result(),
		RawConns: e.connsIngested,
		RawCerts: len(e.roster),
		Copies:   e.st.Tiered(),
	}
}

// Analysis materializes every table and figure over the state applied so
// far — mid-stream this is a consistent snapshot; after Drain on a
// finite input it deep-equals the batch pipeline's Analysis.
func (e *Engine) Analysis() *core.Analysis {
	var a *core.Analysis
	e.WithPipeline(func(p *core.Pipeline) { a = p.RunAll() })
	return a
}

// WithPipeline runs fn over the engine's materialized pipeline; fn must
// not retain it. Ingestion keeps flowing while fn runs. The whole
// materialization (any catch-up or replay plus fn) is observed in
// stream_materialize_seconds.
func (e *Engine) WithPipeline(fn func(*core.Pipeline)) {
	if e.view == nil {
		panic("stream: a routed shard keeps raw state only; materialize through its Sharded")
	}
	defer e.m.materializeDur.Since(time.Now())
	e.view.WithPipeline(fn)
}

// Stats returns the operational counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.statsLocked()
	e.mu.Unlock()
	if e.view != nil {
		ms := e.view.Stats()
		st.Rebuilds, st.Dirty = ms.Replays, ms.Stale
	}
	return st
}

// statsLocked is the raw state's counters, for a caller already holding
// the state lock (the router reads a shard's counters and detector under
// one hold). Rebuilds and Dirty belong to whoever owns the view.
func (e *Engine) statsLocked() Stats {
	st := Stats{
		ConnsIngested:       e.connsIngested,
		CertsIngested:       e.certsIngested,
		Dropped:             e.dropped.Load(),
		Rejected:            e.rejected.Load(),
		Retained:            e.st.ConnCount(),
		Evicted:             e.evicted,
		UniqueCerts:         len(e.roster),
		ExcludedCerts:       e.icpt.ExcludedCount(),
		InterceptionIssuers: e.icpt.ConfirmedCount(),
		PendingCerts:        e.icpt.PendingCount(),
		Watermark:           e.watermark,
		LastCheckpoint:      e.lastCkpt,
	}
	if !e.lastCkpt.IsZero() {
		st.CheckpointAge = time.Since(e.lastCkpt).Seconds()
	}
	return st
}

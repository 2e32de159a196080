// Package stream is the incremental analysis engine: it consumes
// core.ConnRecord / core.CertRecord events one at a time — as a border
// tap or log tailer produces them — and keeps the joint SSL×X509 state of
// the paper's pipeline current, so any table or figure can be
// materialized at any point mid-stream. cmd/mtlsd wraps it in a
// long-running daemon.
//
// # One engine shape
//
// An Engine is a router, one window and one merged view, and every
// deployment — a monitor, a sensor, a restored daemon — is that and
// nothing else. The router validates each event and stamps it with the
// deployment's one sequence. It holds the certificate roster — the
// deduplicated entity the paper counts, kept once — and the one §3.2
// detector: it resolves each connection's server leaf against the roster,
// one probe per connection, and runs the interception filter over the pair
// before handing the connection to the window, so the verdict — a fact
// about the whole dataset — is computed in one place. The window
// (window.go) is one apply goroutine behind one bounded buffer over raw
// state: the retained connections and the segment chain they are
// checkpointed to. It holds no certificate table and no detector, enriches
// nothing and is never read directly. Reports are read through one
// core.MergedView with two sources, the window and the roster — the
// materializer an aggregator uses too, with a source per sensor. There are
// two lock levels, always taken router → window.
//
// # Equivalence contract
//
// Feeding a finite dataset through an Engine (certificates and
// connections in any interleaving, connections in dataset order) and
// draining it produces an Analysis deeply equal to mtls.Analyze on the
// same input. The engine shares the batch pipeline's implementation rather
// than reimplementing it: enrichment goes through core.Builder (which the
// batch preprocess fills too, under the same §3.2 admission rule) and
// interception filtering through interception.Stream (which Detector.Run
// itself wraps). Connections are
// replayed in their ingest order (the window appends them in the router's
// sequence order), there is one roster (first observation of a fingerprint
// wins, as zeek.Dataset.AddCert has it), and the §3.2 verdict is one
// interception.Stream's over every connection in routing order. A
// connection routed before its leaf certificate arrived is parked in the
// detector and observed when the certificate is admitted, so the evidence
// does not depend on how the two logs interleave. Mid-stream, a
// materialization is every certificate admitted and a prefix of the
// connections: one apply loop appends in sequence order, so the window
// always holds everything routed up to the last batch it applied, which is
// what lets the merged view append what is new instead of replaying. (The
// verdict those connections are filtered under is the detector's over
// everything routed, so it runs ahead of the window by the batches in
// flight — and, under Policy Drop, by the connections a full buffer shed
// after the router numbered them. After Drain with nothing shed, routed
// and applied are the same set.)
//
// # Retroactive evidence and replays
//
// The view's Builder lives as long as the engine and, on a read after new
// events, enriches those events — the roster's and the window's suffix
// past the view's cursor — and nothing else; a read while nothing moved
// costs nothing. Late evidence is patched into that Builder, so the
// result still equals what batch would compute with all data present up
// front: a certificate that arrives after a read had enriched connections
// naming it re-enriches those connections in place (one that lands before
// the next read costs nothing: a catch-up adds certificates ahead of
// connections), and a §3.2 exclusion set that grew (an issuer confirmed as
// interception after its certificates were admitted, or one more forged
// leaf of a confirmed one) takes the connections those certificates
// served back out — stream_merge_late_conns_total and
// stream_merge_retracted_conns_total count the two. What cannot be
// patched replays the retained window through a fresh Builder, for
// exactly the reasons core.ReplayReason names: the first read, and
// retention evicting. Replays are counted in Stats.Rebuilds and, by
// reason, in stream_merge_replays_total. A read holds the router lock and
// the window's state lock only while it snapshots what is new; the report
// scan itself runs beside ingestion.
//
// The §3.2 verdict is not part of a read's price: the detector keeps it
// current as each pair lands. The merged view's capture and Export, which
// hold the router lock anyway, read it there; Stats reads the three sizes
// the router publishes at the end of each ingest batch. Stats is
// therefore O(1), whatever the evidence or roster size, and takes no
// router lock: it never waits behind a batch being routed or an Export.
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
// toward issuer confirmation. On the disk store the window's captures are
// decoded copies, so the view keeps no Builder between reads: every
// report replays, and the hot-set bound holds after a report as it did
// before it.
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
)

// Policy selects what Ingest does when the window's bounded buffer is
// full. Only connections cross the buffer: a certificate is never shed.
type Policy int

const (
	// Block applies backpressure: Ingest waits for buffer space. This is
	// the lossless default — right when the producer is a log tailer that
	// can simply fall behind.
	Block Policy = iota
	// Drop sheds load: Ingest discards the event, counts it in
	// Stats.Dropped, and returns false. Right when the producer is a live
	// tap that must never stall the capture path. A shed connection is not
	// retained and not counted in Stats.ConnsIngested, but the router's
	// §3.2 detector observed it when it numbered it: like a connection
	// retention evicted, it still counts toward issuer confirmation.
	Drop
)

// Config configures an Engine.
type Config struct {
	// Input is the analysis context (trust bundle, CT log, association
	// map, netsim plan, and the worker count of an Analysis fan-out).
	// Input.Raw is ignored — the engine accumulates its own dataset from
	// the ingested events.
	Input *core.Input
	// Buffer is the window's ingest channel capacity in batches (default
	// 1024).
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
	// occupancy), one unlabelled series each. Nil disables exposition;
	// the engine still instruments into a private registry so call sites
	// stay unconditional.
	Metrics *metrics.Registry

	// Store selects where the retained connection window (a store.Window)
	// lives: "" or "memory" keeps it in RAM (the default), "disk" gives it
	// a cold tier — a hot tail in RAM under HotBytes, the older remainder
	// spilled to a segment file under StoreDir — so the window can exceed
	// RAM. The certificate roster is resident either way. A tiered engine
	// trades materialization cost for bounded ingest RSS: every report
	// replays the window, decoding the spilled records, and lets the
	// enriched state go when it returns (kept, it would pin every record
	// the window spilled).
	Store string
	// StoreDir is the disk store's scratch directory (required when
	// Store is "disk"; recreated on start — durability is the
	// checkpoint's job, not the store's).
	StoreDir string
	// HotBytes bounds the disk store's in-RAM hot connections (estimated
	// record bytes; default store.DefaultHotBytes): the window's budget,
	// which is the engine's.
	HotBytes int64

	// TrackExport enables Export — the cursor-addressable snapshot a
	// sensor serves to an aggregator. The router numbers connections and
	// first-observed certificates from one sequence whether or not anyone
	// exports, and the roster is a log ascending by that sequence, so a
	// delta is a suffix; under TrackExport Export is served and checkpoints
	// carry the epoch that scopes the numbering, so a cursor taken before a
	// restart is continued after it, up to the sequence restored. Off by
	// default.
	TrackExport bool
}

// Stats is the engine's operational counters, served by mtlsd /stats.
type Stats struct {
	ConnsIngested uint64 // connection events applied
	CertsIngested uint64 // certificate events admitted (incl. duplicates)
	Dropped       uint64 // connection events shed under Policy Drop
	Rejected      uint64 // invalid events refused at the ingest boundary
	Retained      int    // connections currently in the window
	Evicted       uint64 // connections dropped by retention
	Rebuilds      uint64 // merged-view replays (first read, eviction) since the process started
	Dirty         bool   // state changed since the last read caught up

	UniqueCerts         int // certificate roster size
	ExcludedCerts       int // §3.2 interception exclusions so far
	InterceptionIssuers int // confirmed interception issuers so far
	PendingCerts        int // conns parked awaiting their leaf certificate

	Watermark      time.Time // newest connection timestamp seen
	LastCheckpoint time.Time // zero until the first checkpoint
	CheckpointAge  float64   // seconds since LastCheckpoint (0 if none)
}

// Engine is the incremental analysis engine: a router feeding one window,
// read through one merged view. Create with New, feed with
// IngestConn/IngestCert or their batch forms, materialize with Analysis
// or Report.
type Engine struct {
	cfg Config
	win *window

	// mu guards the router state below. Lock order: mu, then the window's
	// state lock (Export and the merged view's capture hold both).
	mu sync.Mutex
	// closed stops admission: a closed engine assigns no sequence and
	// moves no counter.
	closed bool
	// nextSeq is the next sequence number (connections and first-observed
	// certificates share one number space).
	nextSeq uint64
	// epoch scopes export cursors to this sequence numbering (a fresh
	// engine gets a fresh epoch, so a cursor taken against a predecessor
	// is detectably stale rather than silently wrong). A restore draws a
	// fresh one too — what it re-reads past the checkpoint is numbered
	// anew — and, under cfg.TrackExport, remembers the checkpointed epoch
	// and the sequence it restored to: the numbering the two share.
	epoch        uint64
	resumedEpoch uint64
	resumedSeq   uint64
	// roster is the certificate roster as an append-only log in admission
	// order (first observation wins; cumulative, resident, pointers stable
	// for the engine's lifetime), certSeqs the sequence each was admitted
	// under, ascending — so "the roster since" a checkpoint commit, the
	// merged view's cursor or an export cursor is a slice suffix, readable
	// after mu is released. certs indexes it by fingerprint; rosterLen is
	// its length for readers without mu.
	roster    []*certmodel.CertInfo
	certSeqs  []uint64
	certs     map[ids.Fingerprint]*certmodel.CertInfo
	rosterLen atomic.Uint64
	// icpt is the §3.2 detector, cumulative over every connection routed:
	// it observes each one beside the leaf the roster resolved for it and
	// parks those whose leaf has not been admitted. parked, excluded and
	// confirmed are its three sizes as of the last ingest batch, for Stats.
	icpt                        *interception.Stream
	parked, excluded, confirmed atomic.Int64
	// published is closed by the next publish (publishLocked) and then
	// forgotten; it exists only while someone waits on it (NextPublish).
	published chan struct{}

	certsRouted atomic.Uint64 // IngestCert calls admitted (incl. duplicate fps)
	rejected    atomic.Uint64

	m *engineMetrics

	// view is the merged materialization, cached on the window's and the
	// roster's versions and caught up from their suffixes.
	view *core.MergedView

	// ckpt owns the checkpoint directory: the window's segment chain,
	// committed with the router's state by one MANIFEST.
	ckpt *checkpointer
}

// New starts an engine. Call Close to stop it.
func New(cfg Config) (*Engine, error) {
	s, err := start(cfg)
	if err != nil {
		return nil, err
	}
	s.epoch = newEpoch()
	return s, nil
}

// NewSharded is New: an engine has one window, and n is ignored.
//
// Deprecated: use New. NewSharded goes in the next release.
func NewSharded(n int, cfg Config) (*Engine, error) { return New(cfg) }

// start builds an engine over a fresh window: router state, the merged
// view wired to the window's and the roster's versions, and the
// checkpointer over the window's chain.
func start(cfg Config) (*Engine, error) {
	if cfg.Input == nil {
		return nil, fmt.Errorf("stream: Config.Input is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	w, err := newWindow(cfg)
	if err != nil {
		return nil, err
	}
	s := &Engine{
		cfg:   cfg,
		win:   w,
		certs: make(map[ids.Fingerprint]*certmodel.CertInfo),
		icpt:  interception.NewDetector(cfg.Input.Bundle, cfg.Input.CT).NewStream(),
		m:     w.m,
	}
	s.view = &core.MergedView{
		Input:    cfg.Input,
		Versions: s.versions,
		Capture:  s.capture,
		OnMerge:  s.m.onMerge,
	}
	s.ckpt = &checkpointer{win: w, router: s.routerState, m: s.m}
	return s, nil
}

// IngestConn feeds one connection event — a batch of one over
// IngestConnBatch. The record is copied; the caller may reuse it.
// Returns false when the event was rejected as invalid, dropped (Policy
// Drop with a full buffer), or the engine is closed.
//
// A nil record or a weight below 1 is rejected up front (counted in
// Stats.Rejected): the parsers guarantee weight >= 1, but the engine is
// also fed by taps and tests, and a zero/negative weight would silently
// corrupt every weighted percentage the reports derive.
func (s *Engine) IngestConn(rec *core.ConnRecord) bool {
	if rec == nil {
		s.reject()
		return false
	}
	return s.IngestConnBatch([]core.ConnRecord{*rec}) == 1
}

// IngestCert feeds one certificate event — a batch of one over
// IngestCertBatch; true means the roster holds the certificate. A nil
// record, a nil certificate, or an empty fingerprint is rejected
// (counted in Stats.Rejected) — an unkeyed certificate could never be
// resolved from a chain and would only poison the roster.
func (s *Engine) IngestCert(rec *core.CertRecord) bool {
	if rec == nil {
		s.reject()
		return false
	}
	return s.IngestCertBatch([]core.CertRecord{*rec}) == 1
}

// Drain blocks until every event ingested before the call has been
// applied to the window.
func (s *Engine) Drain() { s.win.drain() }

// Close stops admission, drains and stops the window's apply loop, and
// waits for a checkpoint compaction still folding in the background, so
// nothing writes to the checkpoint directory once it returns.
// Materialization remains available.
func (s *Engine) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.win.close()
	s.ckpt.compactWG.Wait()
}

// versions reads the merged view's version vector without a lock: the
// window's state version, then the roster's length.
func (s *Engine) versions() []uint64 {
	return []uint64{s.win.stateVer.Load(), s.rosterLen.Load()}
}

// capture is the merged view's source: what the window holds beyond the
// view's cursor, snapshotted under its lock, and as a second source,
// certificates only, the roster log's suffix. All of it stays readable
// once the locks are released (roster pointers are immutable, appends land
// past the captured lengths, eviction swaps in fresh arrays, a verdict is
// a new value when it moves); on a tiered window the records are copies
// made here, which is what Copies tells the view. Each version is read
// under the same lock hold as the state, so the cache key matches exactly
// what was captured. The detector only ever resolves a leaf the roster
// handed it, and both are read under the one router lock hold, so the
// verdict excludes no certificate the roster does not list.
func (s *Engine) capture(since []core.MergeCursor) core.MergeCapture {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.win
	w.mu.Lock()
	conns, seqs := w.st.Snapshot(since[0].Seq)
	c := core.MergeCapture{
		Shards:   []core.ShardState{{Conns: conns, Seqs: seqs}, {Certs: s.roster[since[1].Certs:]}},
		Versions: []uint64{w.stateVer.Load(), uint64(len(s.roster))},
		Lost:     []uint64{w.evicted, 0},
		RawConns: w.connsIngested,
		Copies:   w.st.Tiered(),
	}
	w.mu.Unlock()
	c.Verdict = s.icpt.Result()
	c.RawCerts = len(s.roster)
	return c
}

// WithPipeline runs fn over the engine's materialized pipeline; fn must
// not retain it. Ingestion keeps flowing while fn runs (the view
// snapshots the window's state briefly, then releases the locks). The
// whole materialization — any catch-up or replay plus fn — is observed in
// stream_materialize_seconds.
func (s *Engine) WithPipeline(fn func(*core.Pipeline)) {
	defer s.m.materializeDur.Since(time.Now())
	s.view.WithPipeline(fn)
}

// Analysis materializes every table and figure over the state applied so
// far — mid-stream this is a consistent snapshot; after Drain on a
// finite input it deep-equals the batch pipeline's Analysis.
func (s *Engine) Analysis() *core.Analysis {
	var a *core.Analysis
	s.WithPipeline(func(p *core.Pipeline) { a = p.RunAll() })
	return a
}

// Stats returns the operational counters: the window's ingest, drop and
// retention counters, and the router's certificate and §3.2 numbers read
// off their atomics — one hold of the window's lock, none of the router's,
// nothing proportional to the evidence or the roster. Rebuilds counts
// merged-view replays (not the catch-ups that append, complete or take
// back in place); Dirty means the window or the roster changed since the
// last catch-up.
func (s *Engine) Stats() Stats {
	st := Stats{
		Rejected:            s.rejected.Load(),
		CertsIngested:       s.certsRouted.Load(),
		UniqueCerts:         int(s.rosterLen.Load()),
		PendingCerts:        int(s.parked.Load()),
		ExcludedCerts:       int(s.excluded.Load()),
		InterceptionIssuers: int(s.confirmed.Load()),
	}
	w := s.win
	st.Dropped = w.dropped.Load()
	w.mu.Lock()
	st.ConnsIngested = w.connsIngested
	st.Retained = w.st.ConnCount()
	st.Evicted = w.evicted
	st.Watermark = w.watermark
	st.LastCheckpoint = w.lastCkpt
	w.mu.Unlock()
	ms := s.view.Stats()
	st.Rebuilds, st.Dirty = ms.Replays, ms.Stale
	if !st.LastCheckpoint.IsZero() {
		st.CheckpointAge = time.Since(st.LastCheckpoint).Seconds()
	}
	return st
}

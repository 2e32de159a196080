// Package stream is the incremental analysis engine: it consumes
// core.ConnRecord / core.CertRecord events one at a time — as a border
// tap or log tailer produces them — and keeps the joint SSL×X509 state of
// the paper's pipeline current, so any table or figure can be
// materialized at any point mid-stream. cmd/mtlsd wraps it in a
// long-running daemon.
//
// # One engine type
//
// An Engine is a router, n ≥ 1 shards and one merged view, and every
// deployment — New's one shard, NewSharded's n, a sensor, a restored
// daemon — is that and nothing else. The router validates each event and
// stamps it with the deployment's one sequence. It holds the certificate
// roster — the deduplicated entity the paper counts, kept once — and the
// one §3.2 detector: it resolves each connection's server leaf against
// the roster, one probe per connection, and runs the interception filter
// over the pair before hashing the connection's UID to a home shard, so
// the verdict — a fact about the whole dataset — is computed in one
// place. A shard (shard.go) is an apply goroutine over raw state: the
// retained window of its connections and the segment chain they are
// checkpointed to. It holds no certificate table and no detector, enriches
// nothing and is never read directly. Reports are read through one
// core.MergedView with one source per shard and one for the roster — the
// materializer an aggregator uses too. There are two lock levels, always
// taken router → shard.
//
// # Equivalence contract
//
// Feeding a finite dataset through an Engine (certificates and
// connections in any interleaving, connections in dataset order) and
// draining it produces an Analysis deeply equal to mtls.Analyze on the
// same input, at any shard count. The engine shares the batch pipeline's
// implementation rather than reimplementing it: enrichment goes through
// core.Builder (the same enricher the serial batch path runs) and
// interception filtering through interception.Stream (which Detector.Run
// itself wraps). Connections are replayed in their ingest order (a k-way
// merge on router-assigned sequence numbers), there is one roster (first
// observation of a fingerprint wins, as zeek.Dataset.AddCert has it), and
// the §3.2 verdict is one interception.Stream's over every connection in
// routing order, wherever it was hashed to. A connection routed before
// its leaf certificate arrived is parked in the detector and observed when
// the certificate is admitted, so the evidence does not depend on how the
// two logs interleave. Mid-stream, a materialization is every certificate
// admitted and a prefix of the connections: every one below the applied
// frontier — the lowest sequence a shard with routed-but-unapplied work
// has still to apply — and none above it. A shard running ahead of a
// lagging one is therefore read one batch stale rather than out of order,
// which is what lets the merged view append what is new instead of
// replaying. (The verdict those connections
// are filtered under is the detector's over everything routed, so it runs
// ahead of the frontier by the batches in flight — and, under Policy Drop,
// by the connections a full buffer shed after the router numbered them.
// After Drain with nothing shed, routed and applied are the same set.)
//
// # Retroactive evidence and replays
//
// The view's Builder lives as long as the engine and, on a read after new
// events, enriches those events — the roster's and each shard's window's
// suffix past the view's cursor — and nothing else; a read while nothing
// moved costs nothing. Late evidence is patched into that Builder, so the
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
// each shard's state lock only while it snapshots what is new; the report
// scan itself runs beside ingestion.
//
// The §3.2 verdict is not part of a read's price: the detector keeps it
// current as each pair lands. The merged view's capture and Export, which
// hold the router lock anyway, read it there; Stats reads the three sizes
// the router publishes at the end of each ingest batch. Stats is
// therefore O(shards), whatever the evidence or roster size, and takes no
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
// toward issuer confirmation. On the disk store the shards' captures are
// decoded copies, so the view keeps no Builder between reads: every
// report replays, and the hot-set bound holds after a report as it did
// before it.
package stream

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Policy selects what Ingest does when a shard's bounded buffer is full.
// Only connections cross a buffer: a certificate is never shed.
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
	// map, netsim plan, months, workers). Input.Raw is ignored — the
	// engine accumulates its own dataset from the ingested events.
	Input *core.Input
	// Buffer is each shard's ingest channel capacity (default 1024).
	Buffer int
	// Policy is the full-buffer behavior (default Block).
	Policy Policy
	// Retention bounds connection state to a sliding window of this
	// length behind the newest connection timestamp. 0 retains
	// everything (required for batch equivalence).
	Retention time.Duration
	// EvictEvery is how many connection events elapse on a shard between
	// its eviction sweeps when Retention is set (default 1024).
	EvictEvery int
	// Metrics receives the engine's operational series (ingest counters,
	// queue latency, merge/materialize/evict durations, buffer
	// occupancy); per-shard series carry a shard="i" label. Nil disables
	// exposition; the engine still instruments into a private registry so
	// call sites stay unconditional.
	Metrics *metrics.Registry

	// Store selects where each shard's retained connection window (a
	// store.Window) lives: "" or "memory" keeps it in RAM (the default),
	// "disk" gives it a cold tier — a hot tail in RAM under HotBytes, the
	// older remainder spilled to a segment file under StoreDir — so the
	// window can exceed RAM. The certificate roster is resident either
	// way. A tiered engine trades materialization cost for bounded ingest
	// RSS: every report replays the window, decoding the spilled records,
	// and lets the enriched state go when it returns (kept, it would pin
	// every record the window spilled).
	Store string
	// StoreDir is the disk store's scratch directory (required when
	// Store is "disk"; recreated on start — durability is the
	// checkpoint's job, not the store's). Shard i tiers into its
	// shard-i subdirectory.
	StoreDir string
	// HotBytes bounds the disk store's in-RAM hot connections (estimated
	// record bytes; default store.DefaultHotBytes). It is the engine's
	// budget, split evenly across its shards.
	HotBytes int64

	// TrackExport enables Export — the cursor-addressable snapshot a
	// sensor serves to an aggregator. The router numbers connections and
	// first-observed certificates from one sequence whether or not anyone
	// exports, and the roster is a log ascending by that sequence, so a
	// delta is a suffix; under TrackExport Export is served and checkpoints
	// carry the epoch that scopes the numbering, so cursors survive a
	// restart. Off by default.
	TrackExport bool

	// metricLabels are alternating key/value pairs appended to every
	// stream_* series a shard registers ("shard", "3"), so the shards of
	// one engine expose distinguishable series in one registry.
	metricLabels []string
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

// MaxShards is the sanity bound on a requested shard count and on the
// chains a checkpoint manifest may name: far beyond any core count the
// single-producer router could keep fed.
const MaxShards = 64

// Engine is the incremental analysis engine: one router feeding n shards,
// read through one merged view. Create with New or NewSharded, feed with
// IngestConn/IngestCert or their batch forms, materialize with Analysis
// or Report.
type Engine struct {
	cfg    Config
	shards []*shard

	// mu guards the router state below. Lock order: mu, then a shard's
	// state lock (Export and the merged view's capture hold both).
	mu sync.Mutex
	// closed stops admission: a closed engine assigns no sequence and
	// moves no counter.
	closed bool
	// scratch is the per-shard batch partition table the ingest path
	// reuses across calls (populated and flushed under mu).
	scratch []*batch
	// nextSeq is the next sequence number (connections and first-observed
	// certificates share one number space).
	nextSeq uint64
	// routed[i] is one past the last connection sequence handed to shard
	// i's queue: a shard whose own nextSeq trails it has work to apply.
	// merged is one past the highest sequence a capture has handed the
	// merged view; every connection below it is applied.
	routed []uint64
	merged uint64
	// epoch scopes export cursors to this sequence numbering (a fresh
	// engine gets a fresh epoch, so a cursor taken against a predecessor
	// is detectably stale rather than silently wrong); preserved across
	// checkpoint/restore under cfg.TrackExport.
	epoch uint64
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

	certsRouted atomic.Uint64 // IngestCert calls admitted (incl. duplicate fps)
	rejected    atomic.Uint64

	m *routerMetrics

	// view is the merged materialization, cached on the per-shard
	// stateVer vector and caught up from the shards' suffixes.
	view *core.MergedView

	// ckpt owns the checkpoint directory: one segment chain per shard,
	// committed with the router's state by one MANIFEST.
	ckpt *checkpointer
}

// New starts a one-shard engine. Call Close to stop it.
func New(cfg Config) (*Engine, error) { return NewSharded(1, cfg) }

// ShardCount resolves a requested shard count: n <= 0 selects one shard
// per CPU, at most MaxShards; more than MaxShards is an error.
func ShardCount(n int) (int, error) {
	if n <= 0 {
		return min(runtime.GOMAXPROCS(0), MaxShards), nil
	}
	if n > MaxShards {
		return 0, fmt.Errorf("stream: %d shards requested, at most %d are supported", n, MaxShards)
	}
	return n, nil
}

// NewSharded starts an engine of n shards; n is resolved by ShardCount.
// Config applies to every shard (Buffer is per shard). Call Close to stop
// it.
func NewSharded(n int, cfg Config) (*Engine, error) {
	n, err := ShardCount(n)
	if err != nil {
		return nil, err
	}
	s, err := start(cfg, n, newShard)
	if err != nil {
		return nil, err
	}
	s.epoch = newEpoch()
	return s, nil
}

// start builds an engine of n shards, each opened by open in shard order —
// fresh, or restored from its chain: router state, metrics, the merged
// view wired to the shards' state versions, and the checkpointer over
// their chains.
func start(cfg Config, n int, open func(Config) (*shard, error)) (*Engine, error) {
	if cfg.Input == nil {
		return nil, fmt.Errorf("stream: Config.Input is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s := &Engine{
		cfg:     cfg,
		certs:   make(map[ids.Fingerprint]*certmodel.CertInfo),
		icpt:    interception.NewDetector(cfg.Input.Bundle, cfg.Input.CT).NewStream(),
		m:       newRouterMetrics(cfg.Metrics, n),
		scratch: make([]*batch, n),
		routed:  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		e, err := open(s.shardConfig(i, n))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, e)
	}
	s.view = &core.MergedView{
		Input:    cfg.Input,
		Versions: s.versions,
		Capture:  s.capture,
		OnMerge:  s.m.onMerge,
	}
	s.ckpt = &checkpointer{shards: s.shards, router: s.routerState, dur: s.m.checkpointDur, compactDur: s.m.compactDur}
	return s, nil
}

// shardConfig derives shard i's config: its metric label, and on the disk
// store its share of the hot budget and its own subdirectory.
func (s *Engine) shardConfig(i, n int) Config {
	cfg := s.cfg
	if cfg.Store == "disk" {
		// HotBytes is the engine's budget at any shard count: resolve the
		// default, then give each shard an even share (at least one byte —
		// zero would select the default again).
		if cfg.HotBytes <= 0 {
			cfg.HotBytes = store.DefaultHotBytes
		}
		cfg.HotBytes = max(cfg.HotBytes/int64(n), 1)
		if cfg.StoreDir != "" {
			cfg.StoreDir = filepath.Join(cfg.StoreDir, fmt.Sprintf("shard-%d", i))
		}
	}
	cfg.metricLabels = []string{"shard", strconv.Itoa(i)}
	return cfg
}

// Shards reports the shard count.
func (s *Engine) Shards() int { return len(s.shards) }

// shardHash is FNV-1a over the routing key, a connection's UID.
func shardHash(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (s *Engine) home(key string) int {
	return int(shardHash(key) % uint64(len(s.shards)))
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
// applied on its shard.
func (s *Engine) Drain() {
	for _, e := range s.shards {
		e.drain()
	}
}

// Close stops admission, drains and stops every shard, and waits for a
// checkpoint compaction still folding in the background, so nothing
// writes to the checkpoint directory once it returns. Materialization
// remains available.
func (s *Engine) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, e := range s.shards {
		e.close()
	}
	if s.ckpt != nil {
		s.ckpt.compactWG.Wait()
	}
}

// versions reads the merged view's version vector without a lock: each
// shard's state version, then the roster's length.
func (s *Engine) versions() []uint64 {
	vers := make([]uint64, len(s.shards)+1)
	for i, e := range s.shards {
		vers[i] = e.stateVer.Load()
	}
	vers[len(s.shards)] = s.rosterLen.Load()
	return vers
}

// capture is the merged view's source: what each shard's window holds
// beyond the view's cursor, snapshotted under that shard's lock, and as
// one more source, certificates only, the roster log's suffix. All of it
// stays readable once the locks are released (roster pointers are
// immutable, appends land past the captured lengths, eviction swaps in
// fresh arrays, a verdict is a new value when it moves); on a tiered
// window the records are copies made here, which is what Copies tells the
// view. Each version is read under the same lock hold as the state, so the
// cache key matches exactly what was captured. The detector only ever
// resolves a leaf the roster handed it, and both are read under the one
// router lock hold, so the verdict excludes no certificate the roster does
// not list.
//
// The router lock is held throughout, so no sequence is assigned while
// the shards are read and routed[] says exactly which of them still have
// connections to apply. The capture stops at the applied frontier, the
// lowest sequence any such shard has yet to apply: everything below it
// is applied on every shard, so what a later capture adds sorts after
// what this one returned. When every shard has caught up — always, after
// Drain — that is everything. The frontier never falls below what an
// earlier capture returned (merged), so a replay while a shard lags
// rebuilds at least what the view already showed.
func (s *Engine) capture(since []core.MergeCursor) core.MergeCapture {
	n := len(s.shards)
	c := core.MergeCapture{
		Shards:   make([]core.ShardState, n+1),
		Versions: make([]uint64, n+1),
		Lost:     make([]uint64, n+1),
	}
	frontier := uint64(math.MaxUint64)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.shards {
		e.mu.Lock()
		c.Versions[i] = e.stateVer.Load()
		c.Lost[i] = e.evicted
		conns, seqs := e.st.Snapshot(since[i].Seq)
		c.Shards[i] = core.ShardState{Conns: conns, Seqs: seqs}
		c.RawConns += e.connsIngested
		c.Copies = e.st.Tiered() // one store configuration for all shards
		if e.nextSeq < s.routed[i] {
			frontier = min(frontier, e.nextSeq)
		}
		e.mu.Unlock()
	}
	c.Verdict = s.icpt.Result()
	c.Shards[n] = core.ShardState{Certs: s.roster[since[n].Certs:]}
	c.Versions[n] = uint64(len(s.roster))
	c.RawCerts = len(s.roster)
	frontier = max(frontier, s.merged)
	for i := range c.Shards {
		sh := &c.Shards[i]
		if k, _ := slices.BinarySearch(sh.Seqs, frontier); k < len(sh.Seqs) {
			c.RawConns -= uint64(len(sh.Seqs) - k)
			sh.Conns, sh.Seqs = sh.Conns[:k], sh.Seqs[:k]
		}
		if k := len(sh.Seqs); k > 0 {
			s.merged = max(s.merged, sh.Seqs[k-1]+1)
		}
	}
	return c
}

// WithPipeline runs fn over the engine's materialized pipeline; fn must
// not retain it. Ingestion keeps flowing while fn runs (the view
// snapshots shard state briefly per shard, then releases the locks). The
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

// Stats returns the operational counters: the shards' ingest, drop and
// retention counters summed, the newest watermark, and the router's
// certificate and §3.2 numbers read off their atomics — one lock hold per
// shard, none of the router's, nothing proportional to the evidence or the
// roster. Rebuilds counts merged-view replays (not the catch-ups that
// append, complete or take back in place); Dirty means shard state
// changed since the last catch-up.
func (s *Engine) Stats() Stats {
	st := Stats{
		Rejected:            s.rejected.Load(),
		CertsIngested:       s.certsRouted.Load(),
		UniqueCerts:         int(s.rosterLen.Load()),
		PendingCerts:        int(s.parked.Load()),
		ExcludedCerts:       int(s.excluded.Load()),
		InterceptionIssuers: int(s.confirmed.Load()),
	}
	for _, e := range s.shards {
		e.mu.Lock()
		st.ConnsIngested += e.connsIngested
		st.Dropped += e.dropped.Load()
		st.Retained += e.st.ConnCount()
		st.Evicted += e.evicted
		if e.watermark.After(st.Watermark) {
			st.Watermark = e.watermark
		}
		if e.lastCkpt.After(st.LastCheckpoint) {
			st.LastCheckpoint = e.lastCkpt
		}
		e.mu.Unlock()
	}
	ms := s.view.Stats()
	st.Rebuilds, st.Dirty = ms.Replays, ms.Stale
	if !st.LastCheckpoint.IsZero() {
		st.CheckpointAge = time.Since(st.LastCheckpoint).Seconds()
	}
	return st
}

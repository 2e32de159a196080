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

// MaxShards bounds the shard count: the rendezvous tracks per-shard
// delivery in one uint64 bitmask, which is far beyond any core count the
// single-producer router could keep fed anyway.
const MaxShards = 64

// Sharded runs n independent Engines and presents them as one: the
// router hashes each connection's UID to a home shard (so one shard owns
// each connection's detector evidence and enrichment) and fans each
// certificate out to the shard(s) that reference it through a shared
// rendezvous, so retroactive late-certificate evidence works per shard
// exactly as it does on a single engine. Every shard is a complete,
// individually correct monitor of its substream; the global view is
// recovered at materialization by merging raw per-shard state back
// through one core.Builder.
//
// # Equivalence contract
//
// After Drain on a finite input, every materialized report is deeply
// equal to a single Engine's (and therefore to the batch pipeline's) at
// any shard count: connections are replayed in their global ingest order
// (a k-way merge on router-assigned sequence numbers), certificate
// rosters union to the single roster (the rendezvous always delivers a
// certificate to its fingerprint's home shard, duplicates resolve
// first-observation-wins to the same copy), and the §3.2 verdict is the
// verdict of the union of per-shard detector evidence — correct because
// that evidence is order-independent and per-connection, so domains
// contradicting an issuer on different shards corroborate globally
// (interception.Merge). Mid-stream, a materialization is a prefix of the
// interleaved global stream: every connection below the applied frontier
// — the lowest sequence a shard with routed-but-unapplied work has still
// to apply — and none above it. A shard running ahead of a lagging one
// is therefore read one batch stale rather than out of order, which is
// what lets the merged view append what is new instead of replaying.
// (The verdict those connections are filtered under is the union's over
// everything applied, so it may run ahead of the frontier by the batches
// in flight.)
//
// # Cost model
//
// Ingest parallelizes across shard apply goroutines — the bottleneck the
// single engine's one-goroutine design caps at one core — and a shard
// pays for raw state only: roster, window, detector. It enriches nothing,
// because nothing reads a shard's enrichment. Enrichment happens once, in
// the merged view's long-lived Builder: a materialization after new
// events costs those events (each shard's roster-log and window suffix
// past the view's cursor), and nothing at all while no shard moved. Only
// the cases core.ReplayReason names re-enrich the window — the §3.2
// verdict grew, a certificate arrived after a connection that named it,
// retention evicted — the same view, for the same causes, as a single
// engine's. On the disk store the shards' captures are decoded copies, so
// the view keeps no Builder between reads: every report replays, and the
// hot-set bound holds after a report as it did before it.
//
// The §3.2 verdict is not part of that price. The router owns one
// evidence union for the deployment's lifetime; Stats, the merged view's
// capture and Export each bring it current with the pairs the shards
// journaled since the last catch-up — O(new pairs), usually none — and
// read the verdict off it. Stats is therefore O(shards), whatever the
// evidence or roster size.
type Sharded struct {
	cfg    Config
	shards []*Engine
	// single short-circuits the n=1 deployment: with one shard there is
	// nothing to route or merge, so every ingest and materialization call
	// delegates straight to the engine — a true passthrough with no
	// sequence tracking, rendezvous bookkeeping, or replay-based merge.
	single *Engine

	mu sync.Mutex // guards router state below
	// scratch is the per-shard batch partition table the batched ingest
	// path reuses across calls (populated and flushed under mu).
	scratch []*batch
	// nextSeq is the next global sequence number (connections and
	// first-observed certificates share one number space).
	nextSeq uint64
	// routed[i] is one past the last connection sequence handed to shard
	// i's queue: a shard whose own nextSeq trails it has work to apply.
	// merged is one past the highest sequence a capture has handed the
	// merged view; every connection below it is applied.
	routed []uint64
	merged uint64
	// epoch scopes export cursors to this sequence numbering; preserved
	// across checkpoint/restore, fresh otherwise.
	epoch uint64
	// rv is the certificate rendezvous: every ingested or awaited
	// fingerprint, which shards hold the certificate, and which shards
	// referenced it before it arrived.
	rv          map[ids.Fingerprint]*rendezvous
	uniqueCerts int    // fingerprints whose certificate has arrived
	certsRouted uint64 // IngestCert calls admitted (incl. duplicate fps)
	// certLog lists the arrived certificates ascending by rendezvous seq —
	// append-only, so Export binary-searches its suffix. Kept only under
	// cfg.TrackExport.
	certLog []ExportCert

	rejected atomic.Uint64

	m *shardedMetrics

	// union is the deployment's §3.2 evidence: every shard's journal up
	// to cursors[i]. unionMu guards both. Lock order: mu (Export and the
	// merged view's capture), then unionMu, then a shard's state lock —
	// catching up reads a shard's detector under that shard's lock.
	unionMu sync.Mutex
	union   *interception.Merge
	cursors []int

	// view is the merged materialization, cached on the per-shard
	// stateVer vector and caught up from the shards' suffixes.
	view *core.MergedView

	// ckpt owns the checkpoint directory for all the shards' chains; at
	// n=1 it is the one engine's own.
	ckpt *checkpointer
}

// rendezvous is one fingerprint's delivery state. delivered and waiting
// are shard bitmasks (bit i = shard i).
type rendezvous struct {
	cert      *certmodel.CertInfo
	delivered uint64 // shards whose roster has (or will apply) the cert
	waiting   uint64 // shards that referenced the fp before it arrived
	// seq is the global sequence consumed when the certificate first
	// arrived (certificates and connections share the router's one
	// number space), giving Export a cursor over the roster.
	seq uint64
}

type shardedMetrics struct {
	rejected      *metrics.Counter
	fanout        *metrics.Counter
	checkpointDur *metrics.Histogram
	compactDur    *metrics.Histogram
}

func newShardedMetrics(r *metrics.Registry, n int) *shardedMetrics {
	r.Gauge("stream_shards", "engine shards in the sharded deployment").Set(float64(n))
	return &shardedMetrics{
		rejected: r.Counter("stream_events_rejected_total", "invalid events refused at the ingest boundary", "shard", "router"),
		fanout:   r.Counter("stream_cert_fanout_total", "certificate deliveries to shards (first + forwarded copies)"),
		// One observation per commit or fold of the whole shard set, which
		// the router owns; the shards' own series of these names stay empty.
		checkpointDur: r.Histogram("stream_checkpoint_seconds", "checkpoint serialization+rename duration", nil, "shard", "router"),
		compactDur:    r.Histogram("stream_compact_seconds", "checkpoint compaction duration", nil, "shard", "router"),
	}
}

// NewSharded starts n engine shards behind one router. n <= 0 selects
// one shard per CPU; n is clamped to MaxShards. Config applies to every
// shard (Buffer is per shard); shard series in Config.Metrics carry a
// shard="i" label. Call Close to stop all shards.
func NewSharded(n int, cfg Config) (*Sharded, error) {
	if cfg.Input == nil {
		return nil, fmt.Errorf("stream: Config.Input is required")
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > MaxShards {
		n = MaxShards
	}
	s := newRouter(cfg, n)
	s.epoch = newEpoch()
	for i := 0; i < n; i++ {
		e, err := New(s.shardConfig(i, n))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, e)
	}
	s.ownShards()
	return s, nil
}

// ownShards finishes construction once every shard exists: one shard is
// the passthrough, more are checkpointed as one set by the router.
func (s *Sharded) ownShards() {
	if len(s.shards) == 1 {
		s.single = s.shards[0]
		s.ckpt = s.single.ckpt
		return
	}
	s.ckpt = &checkpointer{engines: s.shards, router: s.routerState, dur: s.m.checkpointDur, compactDur: s.m.compactDur}
}

// newRouter builds the shard-less Sharded that NewSharded and
// RestoreSharded fill: router state, metrics, and the merged view wired
// to the shards' state versions.
func newRouter(cfg Config, n int) *Sharded {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s := &Sharded{
		cfg:     cfg,
		rv:      make(map[ids.Fingerprint]*rendezvous),
		m:       newShardedMetrics(cfg.Metrics, n),
		routed:  make([]uint64, n),
		union:   interception.NewMerge(2),
		cursors: make([]int, n),
	}
	s.view = &core.MergedView{
		Input:    cfg.Input,
		Versions: s.versions,
		Capture:  s.capture,
		OnMerge:  MergeObserver(cfg.Metrics, "stream"),
	}
	return s
}

// shardConfig derives shard i's engine config: per-shard metric labels,
// and with more than one shard a routed engine — router-stamped
// sequences (the merge path needs the global order) and raw state only.
// A single shard IS the global order and materializes its own reports, so
// the n=1 passthrough stays a plain engine. With more than one shard the
// router also owns the sequence space and the export cursor, so the
// engines' own export assignment is forced off — a shard stamping its own
// sequences would collide with router stamps.
func (s *Sharded) shardConfig(i, n int) Config {
	cfg := s.cfg
	cfg.routed = n > 1
	if n > 1 {
		cfg.TrackExport = false
	}
	if cfg.Store == "disk" {
		// HotBytes is the deployment's budget at any shard count: resolve
		// the default, then give each shard an even share (at least one
		// byte — zero would select the default again).
		if cfg.HotBytes <= 0 {
			cfg.HotBytes = store.DefaultHotBytes
		}
		cfg.HotBytes = max(cfg.HotBytes/int64(n), 1)
		if cfg.StoreDir != "" {
			// Each shard tiers into its own subdirectory.
			cfg.StoreDir = filepath.Join(cfg.StoreDir, fmt.Sprintf("shard-%d", i))
		}
	}
	cfg.metricLabels = []string{"shard", strconv.Itoa(i)}
	return cfg
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// shardHash is FNV-1a over the routing key. UID hashing spreads
// connections; fingerprint hashing picks each certificate's home shard.
func shardHash(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (s *Sharded) home(key string) int {
	return int(shardHash(key) % uint64(len(s.shards)))
}

// IngestConn routes one connection — a batch of one through the router
// in IngestConnBatch. Validation matches Engine.IngestConn.
func (s *Sharded) IngestConn(rec *core.ConnRecord) bool {
	if s.single != nil {
		return s.single.IngestConn(rec)
	}
	if rec == nil {
		s.reject()
		return false
	}
	return s.IngestConnBatch([]core.ConnRecord{*rec}) == 1
}

// IngestCert admits one certificate — a batch of one through
// IngestCertBatch. Validation matches Engine.IngestCert; true means the
// certificate entered the rendezvous.
func (s *Sharded) IngestCert(rec *core.CertRecord) bool {
	if s.single != nil {
		return s.single.IngestCert(rec)
	}
	if rec == nil {
		s.reject()
		return false
	}
	return s.IngestCertBatch([]core.CertRecord{*rec}) == 1
}

// Drain blocks until every event ingested before the call has been
// applied on its shard.
func (s *Sharded) Drain() {
	for _, e := range s.shards {
		e.Drain()
	}
}

// Close drains and stops every shard. Materialization remains available.
func (s *Sharded) Close() {
	for _, e := range s.shards {
		e.Close()
	}
}

// versions reads the per-shard state versions without the shard locks.
func (s *Sharded) versions() []uint64 {
	vers := make([]uint64, len(s.shards))
	for i, e := range s.shards {
		vers[i] = e.stateVer.Load()
	}
	return vers
}

// absorbLocked brings the union current with shard i's detector. Caller
// holds unionMu and the shard's state lock.
func (s *Sharded) absorbLocked(i int) {
	s.cursors[i] = s.union.Absorb(s.shards[i].icpt, s.cursors[i])
}

// capture snapshots what each shard holds beyond the merged view's
// cursor — the roster-log entries and the window suffix it has not seen —
// under that shard's lock, as Engine.capture does for a single engine.
// The version is read, and the union caught up, under the same lock hold
// as the state, so the cache key and the verdict match exactly what was
// captured; the union lock is held across all shards so a concurrent
// Stats cannot run the verdict ahead of a shard already captured.
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
func (s *Sharded) capture(since []core.MergeCursor) core.MergeCapture {
	n := len(s.shards)
	c := core.MergeCapture{
		Shards:   make([]core.ShardState, n),
		Versions: make([]uint64, n),
		Lost:     make([]uint64, n),
	}
	frontier := uint64(math.MaxUint64)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unionMu.Lock()
	for i, e := range s.shards {
		e.mu.Lock()
		c.Versions[i] = e.stateVer.Load()
		c.Lost[i] = e.evicted
		conns, seqs := e.st.Snapshot(since[i].Seq)
		c.Shards[i] = core.ShardState{Certs: e.rosterLog[since[i].Certs:], Conns: conns, Seqs: seqs}
		c.RawConns += e.connsIngested
		c.Copies = e.st.Tiered() // one store configuration for all shards
		if e.nextSeq < s.routed[i] {
			frontier = min(frontier, e.nextSeq)
		}
		s.absorbLocked(i)
		e.mu.Unlock()
	}
	c.Verdict = s.union.Result()
	s.unionMu.Unlock()
	c.RawCerts = s.uniqueCerts
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

// WithPipeline runs fn over the merged pipeline; fn must not retain it.
// Shard ingestion keeps flowing while fn runs (the merge snapshots shard
// state briefly per shard, then releases the locks).
func (s *Sharded) WithPipeline(fn func(*core.Pipeline)) {
	if s.single != nil {
		// Nothing to merge: the single engine's own view.
		s.single.WithPipeline(fn)
		return
	}
	s.view.WithPipeline(fn)
}

// Analysis materializes every table and figure over the merged state —
// after Drain on a finite input it deep-equals both a single Engine's
// Analysis and the batch pipeline's.
func (s *Sharded) Analysis() *core.Analysis {
	var a *core.Analysis
	s.WithPipeline(func(p *core.Pipeline) { a = p.RunAll() })
	return a
}

// Report materializes one named report over the merged state, with the
// same name registry and error taxonomy as Engine.Report.
func (s *Sharded) Report(name string) (any, error) {
	return MaterializeReport(s, name)
}

// Stats aggregates the shards' operational counters into the single-
// engine shape: ingest/drop/retention counters sum, the watermark is the
// max, the certificate numbers come from the router (shard rosters
// double-count fanned-out certificates), and the §3.2 numbers are the
// sizes of the union's verdict sets once it has caught up with every
// shard — one lock hold per shard for both, nothing proportional to the
// evidence or the roster. Rebuilds counts merged-view replays (not the
// catch-ups that append); Dirty means shard state changed since the last
// catch-up.
func (s *Sharded) Stats() Stats {
	if s.single != nil {
		// Passthrough: the engine's counters are the deployment's.
		return s.single.Stats()
	}
	var st Stats
	s.unionMu.Lock()
	for i, e := range s.shards {
		e.mu.Lock()
		es := e.statsLocked()
		s.absorbLocked(i)
		e.mu.Unlock()
		st.ConnsIngested += es.ConnsIngested
		st.Dropped += es.Dropped
		st.Rejected += es.Rejected
		st.Retained += es.Retained
		st.Evicted += es.Evicted
		st.PendingCerts += es.PendingCerts
		if es.Watermark.After(st.Watermark) {
			st.Watermark = es.Watermark
		}
		if es.LastCheckpoint.After(st.LastCheckpoint) {
			st.LastCheckpoint = es.LastCheckpoint
		}
	}
	st.ExcludedCerts = s.union.ExcludedCount()
	st.InterceptionIssuers = s.union.ConfirmedCount()
	s.unionMu.Unlock()

	s.mu.Lock()
	st.CertsIngested = s.certsRouted
	st.UniqueCerts = s.uniqueCerts
	s.mu.Unlock()
	st.Rejected += s.rejected.Load()

	ms := s.view.Stats()
	st.Rebuilds, st.Dirty = ms.Replays, ms.Stale
	if !st.LastCheckpoint.IsZero() {
		st.CheckpointAge = time.Since(st.LastCheckpoint).Seconds()
	}
	return st
}

// routerState snapshots what the router checkpoints beside the shards'
// chains.
func (s *Sharded) routerState() *routerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &routerState{NextSeq: s.nextSeq, CertsRouted: s.certsRouted}
	if s.cfg.TrackExport {
		r.Epoch = s.epoch
		r.CertSeqs = make(map[string]uint64, len(s.certLog))
		for _, c := range s.certLog {
			r.CertSeqs[string(c.Cert.Fingerprint)] = c.Seq
		}
	}
	return r
}

// WriteCheckpoint commits every shard's state, the router's and the
// caller's cursor to the checkpoint directory at dir: each shard appends
// one segment to its chain — a delta since the previous commit — and the
// router renames the one manifest naming them all. As with
// Engine.WriteCheckpoint, the caller must Drain first so the cursor is
// consistent with applied state.
func (s *Sharded) WriteCheckpoint(dir string, cursor map[string]int64) error {
	return s.ckpt.write(dir, cursor)
}

// RestoreSharded starts a sharded engine from the checkpoint at path and
// returns the cursor stored with it. n must match the checkpoint's shard
// count (routing is a function of the count, so resharding would orphan
// state); 0 adopts it. The rendezvous is not serialized — it is rebuilt
// here from the restored rosters and retained connections, re-forwarding
// any certificate a referencing shard is missing (possible after
// Drop-policy shedding), so the restored deployment self-heals to the
// same delivery state the checkpointed one had. The error is
// os.ErrNotExist only when path holds no checkpoint.
func RestoreSharded(cfg Config, n int, path string) (*Sharded, map[string]int64, error) {
	if cfg.Input == nil {
		return nil, nil, fmt.Errorf("stream: Config.Input is required")
	}
	ck, err := openCheckpoint(path, n)
	if err != nil {
		return nil, nil, err
	}
	n = len(ck.man.Chains)
	r := ck.man.Router
	if n > 1 && r == nil {
		return nil, nil, fmt.Errorf("%w: checkpoint has %d shards but no router state", store.ErrCorrupt, n)
	}
	s := newRouter(cfg, n)
	for i := 0; i < n; i++ {
		e, err := ck.restoreShard(s.shardConfig(i, n), i)
		if err != nil {
			s.Close()
			return nil, nil, fmt.Errorf("stream: restore shard %d: %w", i, err)
		}
		s.shards = append(s.shards, e)
	}
	s.ownShards()
	ck.adopt(s.ckpt)
	if s.single != nil {
		// Passthrough from here on; the rendezvous is never consulted.
		return s, ck.man.Cursor, nil
	}
	s.nextSeq, s.certsRouted, s.epoch = r.NextSeq, r.CertsRouted, r.Epoch
	if s.epoch == 0 {
		// The checkpointed deployment did not export: fresh numbering
		// scope, so any cursor taken against it is refused as stale.
		s.epoch = newEpoch()
	}
	s.rebuildRendezvous()
	s.mu.Lock()
	for fp, seq := range r.CertSeqs {
		if ent := s.rv[ids.Fingerprint(fp)]; ent != nil {
			ent.seq = seq
		}
	}
	if cfg.TrackExport {
		for _, ent := range s.rv {
			if ent.cert != nil {
				s.certLog = append(s.certLog, ExportCert{Seq: ent.seq, Cert: ent.cert})
			}
		}
		sortCertLog(s.certLog)
	}
	s.mu.Unlock()
	return s, ck.man.Cursor, nil
}

// rebuildRendezvous reconstructs delivery state from restored shard
// rosters, then re-registers every retained connection's interest and
// re-forwards certificates a referencing shard lacks — one certificate
// batch per shard, through the router's scratch table.
func (s *Sharded) rebuildRendezvous() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.shards {
		bit := uint64(1) << i
		e.mu.Lock()
		for fp, c := range e.roster {
			ent := s.rendezvousFor(fp)
			if ent.cert == nil {
				ent.cert = c
				s.uniqueCerts++
			}
			ent.delivered |= bit
			ent.waiting |= bit
		}
		e.mu.Unlock()
	}
	for i, e := range s.shards {
		bit := uint64(1) << i
		// Heals are only collected under the shard lock and sent after it
		// is released: a channel send can block on a full buffer, and the
		// apply goroutine needs the same lock to make room.
		e.mu.Lock()
		e.st.Since(0, func(rec *core.ConnRecord, _ uint64) bool {
			for _, fp := range [2]ids.Fingerprint{rec.ServerLeaf(), rec.ClientLeaf()} {
				if fp == "" {
					continue
				}
				ent := s.rendezvousFor(fp)
				ent.waiting |= bit
				if ent.cert != nil && ent.delivered&bit == 0 {
					b := s.shardBatch(i)
					b.certs = append(b.certs, ent.cert)
					ent.delivered |= bit
				}
			}
			return true
		})
		e.mu.Unlock()
	}
	s.flushScratchLocked()
}

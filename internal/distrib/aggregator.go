package distrib

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
)

// Config configures an Aggregator.
type Config struct {
	// Input is the analysis context every merge replays under (Raw is
	// ignored; the aggregator accumulates sensor state).
	Input *core.Input
	// Sensors are the sensor base addresses ("host:port" or full URLs).
	Sensors []string
	// Interval is a followed sensor's heartbeat and the reconnect pacing
	// (default 5s): a quiet sensor writes an empty snapshot every
	// Interval, a pull on which nothing arrives for two of them (plus a
	// grace) fails, and failures back off exponentially from Interval on
	// the tailer's schedule (internal/backoff).
	Interval time.Duration
	// Metrics receives the distrib_* series; nil disables exposition.
	Metrics *metrics.Registry
	// Logger receives sync-loop events; nil discards.
	Logger *slog.Logger
}

// SensorStatus is one sensor's sync state, served by /api/v1/stats on
// aggregators — the topology visibility a fleet operator watches.
type SensorStatus struct {
	URL           string
	Schema        int // of the last body applied; 0 before the first
	Epoch         uint64
	Cursor        uint64
	Certs         int
	Conns         int
	ConnsIngested uint64
	LastSync      time.Time // zero until the first successful sync
	LastSyncAge   float64   // seconds since LastSync (0 if none)
	LastError     string    // last sync failure ("" after a success)
	Syncs         uint64
	Errors        uint64
	FullResyncs   uint64
	Bytes         uint64
	Evicted       uint64 // conns aged out of the sensor's retention window here
}

// sensorState is one sensor's accumulated raw state plus sync
// bookkeeping; guarded by the aggregator's mu except inside the
// sensor's own pull (network I/O happens unlocked).
type sensorState struct {
	url    string
	schema int // of the last body applied

	// epoch and cursor are the sensor's own numbering, spoken only on the
	// wire: the next delta to ask for.
	epoch  uint64
	cursor uint64

	// certs is the sensor's roster in the order its snapshots listed it,
	// append-only between losses; win replicates its retained window, each
	// connection under the arrival number the aggregator gave it when its
	// sync landed (Aggregator.nextSeq) — not the sensor's sequence, which
	// says nothing about order across sensors. lost counts the times what
	// is held here was dropped or replaced rather than appended to
	// (eviction, a full snapshot over existing state, a 410 discard): the
	// merged view's cursor into this sensor is void past such a point.
	certs []*certmodel.CertInfo
	win   *store.Window
	lost  uint64
	// evidence is the union of every pair the sensor's snapshots carried,
	// pending the parked count the latest one reported.
	evidence *interception.Evidence
	pending  int

	connsIngested uint64
	certsIngested uint64
	retention     time.Duration // sensor's window; 0 = keep everything
	evicted       uint64        // conns dropped here as the watermark advanced

	version     uint64 // bumped on every state change; the merge cache key
	lastSync    time.Time
	lastErr     string
	syncs       uint64
	errs        uint64
	fullResyncs uint64
	bytes       uint64

	bo backoff.Backoff
	m  sensorMetrics
}

// sensorMetrics are one sensor's distrib_* series, registered once in
// NewAggregator so every family is exposed from boot.
type sensorMetrics struct {
	syncs, syncErrors, syncBytes, fullResyncs, evicted *metrics.Counter
	cursor                                             *metrics.Gauge
}

// Aggregator follows N sensors and serves their merged analysis: each
// sensor's accumulated snapshot stream is one source of a
// core.MergedView, merged under the §3.2 verdict of the union of raw
// sensor evidence (interception.Merge). Connections are numbered as
// their sync lands, so the merged order is the order the aggregator
// learned of them — a later sync always sorts after an earlier one,
// whichever sensor it came from — and the view appends each sync's delta
// to its long-lived Builder, taking back first what a grown verdict came
// to exclude; a replay, when one is due (a sensor started over, retention
// evicted), reproduces that same order from the replicas. An unreachable
// sensor backs off and the aggregator keeps serving the last-good merge;
// the staleness is visible per sensor in SensorStatuses and /metrics.
type Aggregator struct {
	cfg    Config
	logger *slog.Logger

	mu      sync.Mutex
	sensors []*sensorState
	// nextSeq numbers the next connection to land in any sensor's replica.
	nextSeq uint64
	// watermark is the newest connection timestamp any sensor has
	// reported: eviction here cannot be undone, so the clock it runs by
	// never goes back, not even when a restarted sensor reports less than
	// it did.
	watermark time.Time

	// union is the fleet's §3.2 evidence and seen its distinct roster
	// fingerprints, both maintained as syncs land (apply) so Stats and
	// capture read them off instead of re-deriving them from every
	// sensor. Guarded by mu.
	union *interception.Merge
	seen  map[ids.Fingerprint]bool

	// view is the merged materialization, cached on the per-sensor
	// version vector and caught up from the replicas' suffixes.
	view *core.MergedView
}

// NewAggregator validates the config and prepares the sensor table; no
// network traffic until Run or SyncAll.
func NewAggregator(cfg Config) (*Aggregator, error) {
	if cfg.Input == nil {
		return nil, fmt.Errorf("distrib: Config.Input is required")
	}
	if len(cfg.Sensors) == 0 {
		return nil, fmt.Errorf("distrib: at least one sensor is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	a := &Aggregator{
		cfg:    cfg,
		logger: cfg.Logger,
		union:  interception.NewMerge(0),
		seen:   make(map[ids.Fingerprint]bool),
	}
	a.view = &core.MergedView{
		Input:    cfg.Input,
		Versions: a.versions,
		Capture:  a.capture,
		OnMerge:  stream.MergeObserver(reg, "distrib"),
	}
	for _, raw := range cfg.Sensors {
		u := strings.TrimRight(raw, "/")
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		ss := &sensorState{
			url:      u,
			win:      new(store.Window),
			evidence: interception.EvidenceOf(nil),
			bo:       backoff.New(cfg.Interval),
			m: sensorMetrics{
				syncs:       reg.Counter("distrib_syncs_total", "successful sensor syncs", "sensor", u),
				syncErrors:  reg.Counter("distrib_sync_errors_total", "failed sensor syncs", "sensor", u),
				syncBytes:   reg.Counter("distrib_sync_bytes_total", "snapshot bytes pulled", "sensor", u),
				fullResyncs: reg.Counter("distrib_full_resyncs_total", "stale-cursor full re-syncs", "sensor", u),
				evicted: reg.Counter("distrib_aggregator_evicted_total",
					"accumulated conns dropped at the aggregator by the sensor's retention window", "sensor", u),
				cursor: reg.Gauge("distrib_sensor_cursor", "sensor sequence cursor", "sensor", u),
			},
		}
		a.sensors = append(a.sensors, ss)
		reg.GaugeFunc("distrib_sensor_last_sync_age_seconds",
			"seconds since the sensor's last successful sync (-1 before the first)",
			func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				if ss.lastSync.IsZero() {
					return -1
				}
				return time.Since(ss.lastSync).Seconds()
			}, "sensor", u)
	}
	return a, nil
}

// idleGrace is what a pull's idle deadline allows beyond two heartbeats:
// room for a sensor to export and encode a large first snapshot.
const idleGrace = 2 * time.Second

// errIdle is the cause a pull's context is cancelled with when nothing
// arrived on it within the idle deadline.
var errIdle = errors.New("idle deadline")

// Run follows every sensor until ctx is done: one loop per sensor, so a
// slow or dead sensor never delays the others. Each loop holds one
// followed stream open (a pull with follow = Interval), so a sensor's rows
// land here as it ingests them and its heartbeat arrives every Interval
// when it is quiet. The Interval ticker only paces reconnects: a followed
// stream that ended cleanly (the sensor shut down, or renumbered) is
// reopened at once, once; anything else — a failure, or a sensor that
// answers one snapshot per request, as the previous release's does —
// waits for the next tick its backoff allows. The first pull of each
// sensor happens immediately.
func (a *Aggregator) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ss := range a.sensors {
		wg.Add(1)
		go func(ss *sensorState) {
			defer wg.Done()
			t := time.NewTicker(a.cfg.Interval)
			defer t.Stop()
			reopened := false
			for ctx.Err() == nil {
				followed, err := a.pull(ctx, ss, a.cfg.Interval)
				if followed && err == nil && !reopened {
					reopened = true
					continue
				}
				reopened = false
				for wait := true; wait; {
					select {
					case <-ctx.Done():
						return
					case now := <-t.C:
						a.mu.Lock()
						wait = !ss.bo.Ready(now)
						a.mu.Unlock()
					}
				}
			}
		}(ss)
	}
	wg.Wait()
}

// SyncAll synchronously pulls every sensor once, unfollowed and ignoring
// backoff — the deterministic hook tests and one-shot tools use. Returns
// the first error (every sensor is still attempted).
func (a *Aggregator) SyncAll(ctx context.Context) error {
	var first error
	for _, ss := range a.sensors {
		if _, err := a.pull(ctx, ss, 0); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pull opens one snapshot request at the sensor's cursor — followed when
// follow > 0 — and applies every snapshot its body carries, each against
// the cursor the one before it left, until the body ends. Each snapshot
// applied is a successful sync; the error that ends a pull is one failed
// sync and starts the backoff (unless ctx ended it). A 410 discards what
// is held of the sensor and asks again from zero. Every pull has an idle
// deadline: nothing arriving on it for two heartbeats (2×Interval) plus
// idleGrace fails it. followed reports whether more than one snapshot
// was applied.
func (a *Aggregator) pull(ctx context.Context, ss *sensorState, follow time.Duration) (followed bool, err error) {
	n, err := a.consume(ctx, ss, follow)
	if err != nil && ctx.Err() == nil {
		a.mu.Lock()
		ss.errs++
		ss.lastErr = err.Error()
		wait := ss.bo.Failure(time.Now())
		a.mu.Unlock()
		ss.m.syncErrors.Inc()
		a.logger.Warn("sensor sync failed", "sensor", ss.url, "err", err, "retry_in", wait.String())
	}
	return n > 1, err
}

// consume is pull's body: it returns how many snapshots were applied.
func (a *Aggregator) consume(ctx context.Context, ss *sensorState, follow time.Duration) (int, error) {
	idle := 2*a.cfg.Interval + idleGrace
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	deadline := time.AfterFunc(idle, func() { cancel(errIdle) })
	defer deadline.Stop()
	// A pull that failed on its own deadline says so, not "context
	// canceled".
	idled := func(err error) error {
		if context.Cause(ctx) == errIdle {
			return fmt.Errorf("distrib: pull %s: nothing arrived for %v", ss.url, idle)
		}
		return err
	}

	a.mu.Lock()
	cursor, epoch := ss.cursor, ss.epoch
	a.mu.Unlock()
	body, status, err := a.open(ctx, ss, cursor, epoch, follow)
	if status == http.StatusGone {
		// The sensor restarted with a new sequence numbering: our
		// accumulated view of it is unusable. Discard and full-resync.
		a.logger.Info("sensor cursor stale; full re-sync", "sensor", ss.url)
		a.mu.Lock()
		ss.discardLocked()
		ss.cursor, ss.epoch = 0, 0
		ss.fullResyncs++
		ss.version++
		a.rebuildUnionLocked()
		a.mu.Unlock()
		ss.m.fullResyncs.Inc()
		cursor = 0
		body, _, err = a.open(ctx, ss, 0, 0, follow)
	}
	if err != nil {
		return 0, idled(err)
	}
	defer body.Close()
	cr := &countingReader{r: bufio.NewReader(&progressReader{r: body, idle: deadline, d: idle})}
	for n := 0; ; n++ {
		before := cr.n
		snap, err := Decode(cr)
		if n > 0 && errors.Is(err, io.EOF) {
			return n, nil // the body ended at a snapshot boundary
		}
		if err != nil {
			return n, idled(fmt.Errorf("distrib: pull %s: %w", ss.url, err))
		}
		if err := a.apply(ss, snap, cr.n-before, cursor, n == 0); err != nil {
			return n, err
		}
		cursor = snap.NextSeq
	}
}

// open requests a snapshot body under SchemaV2 from the cursor on,
// followed when follow > 0. The HTTP status is returned alongside the
// error so the caller can route a 410 to a full re-sync. A sensor that
// refuses the schema (406, naming what it offers in the body) or answers
// under another is an error like any failed pull: nothing of it is
// merged, and the sensor backs off.
func (a *Aggregator) open(ctx context.Context, ss *sensorState, cursor, epoch uint64, follow time.Duration) (io.ReadCloser, int, error) {
	url := ss.url + "/api/v1/snapshot?schema=" + strconv.Itoa(SchemaV2)
	if cursor > 0 {
		url += "&since=" + strconv.FormatUint(cursor, 10) + "&epoch=" + strconv.FormatUint(epoch, 10) + "&adopt=1"
	}
	if follow > 0 {
		url += "&follow=" + strconv.FormatInt(max(follow.Milliseconds(), 1), 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("distrib: pull %s: %w", ss.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode,
			fmt.Errorf("distrib: pull %s: status %d: %s", ss.url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp.Body, resp.StatusCode, nil
}

// apply validates a pulled snapshot against the cursor it answered, folds
// it into the sensor's accumulated state and records the sync. The first
// snapshot of a response may answer a delta under a new epoch — a sensor
// restored from its checkpoint continuing the cursor (open says adopt=1)
// — and its epoch is adopted; a later one must keep it.
func (a *Aggregator) apply(ss *sensorState, snap *Snapshot, nbytes int64, cursor uint64, first bool) error {
	if snap.Since != cursor {
		return fmt.Errorf("distrib: %s answered since %d, asked %d", ss.url, snap.Since, cursor)
	}
	if cursor > 0 && snap.Epoch != ss.epoch && !first {
		return fmt.Errorf("distrib: %s changed epoch mid-delta", ss.url)
	}
	// A delta holds what the sensor first observed since the cursor, in
	// its order: within a snapshot the connections must ascend from the
	// cursor, and NextSeq — the next cursor — must lie past them all.
	next := cursor
	for _, seq := range snap.ConnSeqs {
		if seq < next {
			return fmt.Errorf("distrib: %s sent sequence %d out of order (cursor %d)", ss.url, seq, cursor)
		}
		next = seq + 1
	}
	if snap.NextSeq < next {
		return fmt.Errorf("distrib: %s next sequence %d is behind its own records", ss.url, snap.NextSeq)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if cursor != ss.cursor {
		// Another sync of this sensor landed since the cursor was read;
		// appending this one too would duplicate its records.
		return fmt.Errorf("distrib: %s cursor moved from %d to %d during the pull", ss.url, cursor, ss.cursor)
	}
	if cursor == 0 {
		ss.discardLocked()
	}
	ss.certs = append(ss.certs, snap.Certs...)
	ss.win.GrowConns(len(snap.Conns))
	for i := range snap.Conns {
		ss.win.AppendConn(&snap.Conns[i], a.nextSeq)
		a.nextSeq++
	}
	// Evidence is unioned in: a later snapshot on a stream carries only
	// the pairs new since the one before, and the first of every stream
	// the whole evidence again, which adds nothing already held.
	grew := false
	if snap.Evidence != nil {
		ss.pending = snap.Evidence.Pending
		grew = ss.evidence.Absorb(snap.Evidence)
	}
	// An empty steady-state delta changes nothing (every record on the
	// sensor consumes a sequence number, and a pair held already is no
	// news), so it must not invalidate the merge cache.
	if cursor == 0 || len(snap.Certs) > 0 || len(snap.Conns) > 0 || grew {
		ss.version++
		if cursor == 0 {
			a.rebuildUnionLocked()
		} else {
			for _, c := range snap.Certs {
				a.seen[c.Fingerprint] = true
			}
			if grew {
				a.union.AbsorbEvidence(snap.Evidence)
			}
		}
	}
	ss.schema = SchemaV2
	ss.epoch = snap.Epoch
	ss.cursor = snap.NextSeq
	ss.connsIngested = snap.ConnsIngested
	ss.certsIngested = snap.CertsIngested
	if snap.Watermark.After(a.watermark) {
		a.watermark = snap.Watermark
	}
	ss.retention = snap.Retention
	ss.bytes += uint64(nbytes)
	ss.m.syncBytes.Add(uint64(nbytes))
	a.evictLocked()
	ss.syncs++
	ss.lastErr = ""
	ss.lastSync = time.Now()
	ss.bo.Success()
	ss.m.syncs.Inc()
	ss.m.cursor.Set(float64(ss.cursor))
	return nil
}

// discardLocked forgets everything held of the sensor — a full snapshot
// is about to replace it, or its numbering went stale. Forgetting
// something is a loss the merged view must hear of; forgetting nothing
// (the first sync) is not.
func (ss *sensorState) discardLocked() {
	if len(ss.certs) > 0 || ss.win.ConnCount() > 0 {
		ss.lost++
	}
	ss.certs, ss.win = nil, new(store.Window)
	ss.evidence, ss.pending = interception.EvidenceOf(nil), 0
}

// rebuildUnionLocked re-derives union and seen from what every sensor
// holds now. A delta only ever adds — certificates to a roster, pairs to
// a sensor's cumulative evidence — and apply absorbs it in place; a
// sensor that starts over (a full snapshot, or its state discarded on a
// stale cursor) may hold less than was absorbed from it, which growth
// cannot express. Caller holds a.mu.
func (a *Aggregator) rebuildUnionLocked() {
	a.union.Reset()
	clear(a.seen)
	for _, ss := range a.sensors {
		for _, c := range ss.certs {
			a.seen[c.Fingerprint] = true
		}
		a.union.AbsorbEvidence(ss.evidence)
	}
}

// evictLocked drops accumulated connections that have aged out of their
// sensor's retention window, measured against the global watermark (the
// newest timestamp any sensor reported — the clock a single daemon
// tailing the union of the logs would evict by). Deltas only ship records
// first observed since the cursor, so without this sweep a connection
// shipped in an earlier delta would be retained here forever and the
// merged analysis would diverge from that union daemon. Every sensor is swept on every
// apply: the global watermark advances on any sensor's sync, aging the
// others' records too. Caller holds a.mu.
func (a *Aggregator) evictLocked() {
	wm := a.watermark
	for _, ss := range a.sensors {
		if ss.retention <= 0 {
			continue
		}
		if n := ss.win.EvictBefore(wm.Add(-ss.retention)); n > 0 {
			ss.evicted += uint64(n)
			ss.lost++
			ss.version++
			ss.m.evicted.Add(uint64(n))
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// progressReader pushes a pull's idle deadline back whenever bytes arrive.
type progressReader struct {
	r    io.Reader
	idle *time.Timer
	d    time.Duration
}

func (p *progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if n > 0 {
		p.idle.Reset(p.d)
	}
	return n, err
}

// versions reads the per-sensor state versions — the merge cache key.
func (a *Aggregator) versions() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	vers := make([]uint64, len(a.sensors))
	for i, ss := range a.sensors {
		vers[i] = ss.version
	}
	return vers
}

// capture snapshots, under mu, what every sensor's replica holds beyond
// the merged view's cursor — one source per sensor — and the union's
// verdict, current with every sensor since both change only under mu. The
// slice headers stay readable after mu is released, as in
// stream.Engine.capture: appends land past the captured length and eviction
// (or a full re-sync) swaps in fresh arrays.
func (a *Aggregator) capture(since []core.MergeCursor) core.MergeCapture {
	n := len(a.sensors)
	a.mu.Lock()
	defer a.mu.Unlock()
	c := core.MergeCapture{
		Shards:   make([]core.ShardState, n),
		Versions: make([]uint64, n),
		Lost:     make([]uint64, n),
		Verdict:  a.union.Result(),
		RawCerts: len(a.seen),
	}
	for i, ss := range a.sensors {
		// A cursor taken before a loss may point past what is held now; the
		// view discards this capture when it sees Lost moved.
		certs := ss.certs[min(since[i].Certs, len(ss.certs)):]
		conns, seqs := ss.win.Snapshot(since[i].Seq)
		c.Shards[i] = core.ShardState{Certs: certs, Conns: conns, Seqs: seqs}
		c.Versions[i] = ss.version
		c.Lost[i] = ss.lost
		c.RawConns += ss.connsIngested
	}
	return c
}

// WithPipeline runs fn over the merged pipeline; fn must not retain it.
// Satisfies stream.Materializer, so the aggregator serves the same
// report registry as a local engine.
func (a *Aggregator) WithPipeline(fn func(*core.Pipeline)) {
	a.view.WithPipeline(fn)
}

// Analysis materializes every table and figure over the merged state.
func (a *Aggregator) Analysis() *core.Analysis {
	var out *core.Analysis
	a.WithPipeline(func(p *core.Pipeline) { out = p.RunAll() })
	return out
}

// Report materializes one named report, with the same registry and
// error taxonomy as the engines.
func (a *Aggregator) Report(name string) (any, error) {
	return stream.MaterializeReport(a, name)
}

// Stats maps the aggregated view onto the engine's Stats shape so the
// daemon's /api/v1/stats surface is uniform across roles: ingest
// counters sum the sensors' reported totals, and the roster and §3.2
// numbers are the sizes of sets kept current as syncs land — O(sensors),
// whatever the roster or evidence size. Evicted counts connections
// dropped at the aggregator (aged out of their sensor's retention window
// here), not the sensors' own evictions. Rebuilds counts merged-view
// replays (not the catch-ups that append a sync's delta or take back
// what its evidence came to exclude); Dirty means unmerged sensor state.
func (a *Aggregator) Stats() stream.Stats {
	a.mu.Lock()
	var st stream.Stats
	for _, ss := range a.sensors {
		st.ConnsIngested += ss.connsIngested
		st.CertsIngested += ss.certsIngested
		st.Retained += ss.win.ConnCount()
		st.Evicted += ss.evicted
		st.PendingCerts += ss.pending
	}
	st.Watermark = a.watermark
	st.UniqueCerts = len(a.seen)
	st.ExcludedCerts = a.union.ExcludedCount()
	st.InterceptionIssuers = a.union.ConfirmedCount()
	a.mu.Unlock()
	ms := a.view.Stats()
	st.Rebuilds, st.Dirty = ms.Replays, ms.Stale
	return st
}

// SensorStatuses reports each sensor's sync state, ordered as
// configured.
func (a *Aggregator) SensorStatuses() []SensorStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SensorStatus, 0, len(a.sensors))
	for _, ss := range a.sensors {
		s := SensorStatus{
			URL:           ss.url,
			Schema:        ss.schema,
			Epoch:         ss.epoch,
			Cursor:        ss.cursor,
			Certs:         len(ss.certs),
			Conns:         ss.win.ConnCount(),
			ConnsIngested: ss.connsIngested,
			LastSync:      ss.lastSync,
			LastError:     ss.lastErr,
			Syncs:         ss.syncs,
			Errors:        ss.errs,
			FullResyncs:   ss.fullResyncs,
			Bytes:         ss.bytes,
			Evicted:       ss.evicted,
		}
		if !ss.lastSync.IsZero() {
			s.LastSyncAge = time.Since(ss.lastSync).Seconds()
		}
		out = append(out, s)
	}
	return out
}

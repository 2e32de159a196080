package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// Test runs line as a test of its own — any divergence fails t with the
// line to replay — in parallel with the others unless it crashes a
// commit: the crash seam is one process-wide hook, and the first program
// that needs it installs it, which must not race a commit in flight
// elsewhere.
func Test(t *testing.T, line string) {
	t.Helper()
	p, err := Parse(line)
	if err != nil {
		t.Fatalf("oracle: %v\n\tprogram: %s", err, line)
	}
	if !p.Crashes() {
		t.Parallel()
	}
	runProgram(t, p)
}

// runProgram runs p: every op in order, then the end step that feeds
// the rest, restarts what is down, syncs and holds every report to the
// reference.
func runProgram(tb testing.TB, p Program) {
	tb.Helper()
	r := &run{tb: tb, p: p, line: p.String(), fx: load(tb, p)}
	if p.Crashes() {
		installFailpoint()
	}
	defer r.stop()
	r.start()
	for _, op := range p.Ops {
		r.step(op)
	}
	r.end()
}

// fixture is one generated build and what every program over it compares
// against: the batch pipeline's Analysis and its 23 reports.
type fixture struct {
	build   *mtls.Build
	in      *core.Input // the analysis context, Raw nil
	certs   []core.CertRecord
	conns   []core.ConnRecord
	batch   *core.Analysis
	reports map[string]string
}

type cacheEntry struct {
	key  string
	once sync.Once
	fx   *fixture
	err  error
}

// cache keeps the last few builds, keyed by (spec, seed, scale): a fixed
// list of programs shares them, and a fuzzer's stream of seeds does not
// hold every one it ever tried.
var cache struct {
	mu      sync.Mutex
	entries []*cacheEntry
}

const cacheSize = 4

func load(tb testing.TB, p Program) *fixture {
	tb.Helper()
	key := fmt.Sprintf("%s/%d/%d", p.Spec, p.Seed, p.Scale)
	cache.mu.Lock()
	var e *cacheEntry
	for i, c := range cache.entries {
		if c.key == key {
			e = c
			cache.entries = append(cache.entries[:i], cache.entries[i+1:]...)
			break
		}
	}
	if e == nil {
		e = &cacheEntry{key: key}
	}
	cache.entries = append(cache.entries, e)
	if len(cache.entries) > cacheSize {
		cache.entries = cache.entries[1:]
	}
	cache.mu.Unlock()
	e.once.Do(func() { e.fx, e.err = build(p) })
	if e.err != nil {
		tb.Fatalf("oracle: build %s: %v", key, e.err)
	}
	return e.fx
}

// cohortSpec is the three-cohort fingerprinted scenario: an IoT fleet on
// shared certificates, an interception middlebox and a rotation grid.
func cohortSpec() (*scenario.Spec, error) {
	return scenario.NewBuilder().
		Seed(7).
		AggregateRate(2_000_000).
		Cohort("fleet", "iot-shared-cert", 0.5,
			scenario.Arrival("constant"), scenario.Lifecycle("diurnal")).
		Cohort("acme", "enterprise-middlebox", 0.3,
			scenario.Lifecycle("spike"), scenario.Window(2, 12)).
		Cohort("grid", "rotation-wave", 0.2,
			scenario.Arrival("bursty"), scenario.Lifecycle("drain"),
			scenario.Fingerprint("chrome")).
		Build()
}

func build(p Program) (*fixture, error) {
	var spec *mtls.Spec
	if p.Spec == "cohorts" {
		var err error
		if spec, err = cohortSpec(); err != nil {
			return nil, err
		}
	}
	b, err := mtls.Generate(spec, mtls.WithSeed(p.Seed), mtls.WithScale(p.Scale))
	if err != nil {
		return nil, err
	}
	fx := &fixture{build: b, conns: b.Raw.Conns, batch: mtls.Analyze(b)}
	fx.in = mtls.InputFromBuild(b)
	fx.in.Raw = nil
	for _, c := range b.Raw.Certs {
		fx.certs = append(fx.certs, core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	sort.Slice(fx.certs, func(i, j int) bool { return fx.certs[i].Cert.Fingerprint < fx.certs[j].Cert.Fingerprint })
	if fx.reports, err = reportsOf(pipeline{core.NewPipeline(mtls.InputFromBuild(b))}); err != nil {
		return nil, err
	}
	return fx, nil
}

// pipeline serves the report registry from one materialized pipeline.
type pipeline struct{ p *core.Pipeline }

func (m pipeline) WithPipeline(fn func(*core.Pipeline)) { fn(m.p) }

// reportsOf materializes all 23 reports, JSON-encoded: across the
// snapshot codec a time.Time keeps its instant, not its location pointer.
func reportsOf(m stream.Materializer) (map[string]string, error) {
	names := stream.ReportNames()
	if len(names) != 23 {
		return nil, fmt.Errorf("%d reports registered, want 23", len(names))
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		rep, err := stream.MaterializeReport(m, name)
		if err != nil {
			return nil, fmt.Errorf("report %s: %w", name, err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		out[name] = string(buf)
	}
	return out, nil
}

// The crash seam: atomicfile.Failpoint is one process-wide hook, so it is
// installed once and dispatches on the directory a commit writes into —
// programs running in parallel each arm only their own.
var (
	armed       sync.Map // checkpoint directory → atomicfile.Stage
	errCrash    = errors.New("oracle: crash")
	installOnce sync.Mutex
)

func failpoint(stage atomicfile.Stage, path string) error {
	for _, dir := range []string{path, filepath.Dir(path)} {
		if s, ok := armed.Load(dir); ok && s.(atomicfile.Stage) == stage {
			return errCrash
		}
	}
	return nil
}

// installFailpoint sets the hook unless one is set. Crash programs run
// alone (Test), so no other program commits while it is written.
func installFailpoint() {
	installOnce.Lock()
	defer installOnce.Unlock()
	if atomicfile.Failpoint == nil {
		atomicfile.Failpoint = failpoint
	}
}

// evictEvery is how many connections a sensor's window applies between
// eviction sweeps under retention.
const evictEvery = 256

// followInterval is a followed aggregator's heartbeat and reconnect
// pacing: a restarted sensor is back on its stream within a few.
const followInterval = 20 * time.Millisecond

// run is one program in flight.
type run struct {
	tb      testing.TB
	p       Program
	line    string
	fx      *fixture
	sensors []*sensor
	agg     *distrib.Aggregator
	stopAgg func()
	pos     int   // the feed position reached, in thousandths
	commits int64 // commit ids, unique across the program's sensors
	shed    bool  // some batch was shed under Drop
	// newestEver is the newest timestamp any sensor ever accepted.
	newestEver time.Time
}

func (r *run) fatalf(format string, args ...any) {
	r.tb.Helper()
	r.tb.Fatalf("%s\n\tprogram: %s", fmt.Sprintf(format, args...), r.line)
}

// sensor is one sensor process: an engine behind a distrib.Sensor behind
// an HTTP address that outlives the process, its logs (the plan) and
// the model of what it admitted.
type sensor struct {
	r        *run
	i        int
	conns    []int32 // this sensor's connections, indices into fx.conns
	dir      string  // checkpoint directory
	storeDir string
	eng      *stream.Engine
	srv      *distrib.Sensor
	handler  atomic.Pointer[http.HandlerFunc]
	http     *httptest.Server
	order    Order
	plan     []int32 // events: c ≥ 0 is connection conns[c], c < 0 is certificate ^c
	fed      int
	m        model
	commits  map[int64]mark
	last     int64  // the commit a restore must read; 0 for none
	epoch    uint64 // the engine's numbering
	// restarts counts restarts since the last sync; after one, the next
	// polled sync must full-resync the sensor iff wantResync.
	restarts   int
	resyncs    uint64
	wantResync bool
}

// model is what a sensor's engine admitted, from what each Ingest*Batch
// call returned: the offered events in order (the §3.2 detector observes
// every one), the accepted connections and the shed count.
type model struct {
	events []int32 // offered, as in plan
	kept   []int32 // accepted connections, indices into fx.conns
	certs  int     // certificate events offered
	shed   uint64  // connections shed since the engine started
	// Under retention the window sweeps every evictEvery connections it
	// applies, counted from the engine's start (applied): each sweep
	// evicts what it holds below its watermark minus the retention.
	applied int
	wm      time.Time // the newest accepted timestamp: the window's watermark
	sweeps  []sweep
	icpt    *interception.Stream
	seen    map[ids.Fingerprint]*certmodel.CertInfo
	roster  []*certmodel.CertInfo
	at      int // events the detector has observed
}

// mark is a model's size at a commit, and the numbering it was committed
// under; a restore truncates back to it.
type mark struct {
	events, kept, certs, conns int
	epoch                      uint64
	wm                         time.Time
	sweeps                     int
}

// sweep is one eviction sweep: the accepted connections before it and its
// cutoff.
type sweep struct {
	kept   int
	cutoff time.Time
}

func (m *model) mark() mark {
	return mark{events: len(m.events), kept: len(m.kept), certs: m.certs, conns: len(m.events) - m.certs,
		wm: m.wm, sweeps: len(m.sweeps)}
}

// truncate rolls the model back to a commit, for an engine restored from
// it: the sweep phase starts over.
func (m *model) truncate(mk mark) {
	m.events, m.kept, m.certs, m.shed = m.events[:mk.events], m.kept[:mk.kept], mk.certs, 0
	m.wm, m.sweeps, m.applied = mk.wm, m.sweeps[:mk.sweeps], 0
	m.icpt = nil
}

// accept records accepted connection k, and the sweep it completes.
func (r *run) accept(m *model, k int32) {
	m.kept = append(m.kept, k)
	if ts := r.fx.conns[k].TS; ts.After(m.wm) {
		m.wm = ts
	}
	if m.wm.After(r.newestEver) {
		r.newestEver = m.wm
	}
	if m.applied++; r.p.Ret > 0 && m.applied%evictEvery == 0 {
		m.sweeps = append(m.sweeps, sweep{kept: len(m.kept), cutoff: m.wm.Add(-r.retention())})
	}
}

// holds reports whether a window holds sensor s's i-th accepted
// connection.
type holds func(s *sensor, i int) bool

// retains is an engine's window: the last sweep after the i-th accepted
// connection evicted it if it was below that sweep's cutoff (cutoffs only
// rise, so no earlier sweep evicts more).
func (r *run) retains(s *sensor, i int) bool {
	m := &s.m
	if len(m.sweeps) == 0 {
		return true
	}
	last := m.sweeps[len(m.sweeps)-1]
	return i >= last.kept || !r.fx.conns[m.kept[i]].TS.Before(last.cutoff)
}

// detector brings the reference detector up to the offered events: one
// interception.Stream and the roster it resolves leaves against.
func (s *sensor) detector() *interception.Stream {
	m, fx := &s.m, s.r.fx
	if m.icpt == nil {
		m.icpt = interception.NewDetector(fx.in.Bundle, fx.in.CT).NewStream()
		m.seen, m.roster, m.at = map[ids.Fingerprint]*certmodel.CertInfo{}, nil, 0
	}
	for _, ev := range m.events[m.at:] {
		if ev < 0 {
			c := fx.certs[^ev].Cert
			if m.seen[c.Fingerprint] == nil {
				m.seen[c.Fingerprint] = c
				m.roster = append(m.roster, c)
				m.icpt.ObserveCert(c)
			}
			continue
		}
		rec := &fx.conns[s.conns[ev]]
		m.icpt.Observe(rec, m.seen[rec.ServerLeaf()])
	}
	m.at = len(m.events)
	return m.icpt
}

func (r *run) retention() time.Duration { return time.Duration(r.p.Ret) * 24 * time.Hour }

func (r *run) config(s *sensor) stream.Config {
	cfg := stream.Config{Input: r.fx.in, TrackExport: true, Retention: r.retention()}
	if r.p.Ret > 0 {
		cfg.EvictEvery = evictEvery
	}
	if r.p.Policy == "drop" {
		cfg.Policy, cfg.Buffer = stream.Drop, 2
	}
	if r.p.Store == "disk" {
		cfg.Store, cfg.StoreDir, cfg.HotBytes = "disk", s.storeDir, 64<<10
	}
	return cfg
}

func (r *run) start() {
	n := r.p.Sensors
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := &sensor{r: r, i: i, order: r.p.Order, commits: map[int64]mark{},
			dir: filepath.Join(r.tb.TempDir(), "ckpt"), storeDir: r.tb.TempDir()}
		for k := range r.fx.conns {
			if (r.p.Split == "rr" && k%n == i) || (r.p.Split == "contig" && k*n/len(r.fx.conns) == i) {
				s.conns = append(s.conns, int32(k))
			}
		}
		s.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if h := s.handler.Load(); h != nil {
				(*h)(w, req)
				return
			}
			http.Error(w, "sensor down", http.StatusServiceUnavailable)
		}))
		urls[i] = s.http.URL
		r.sensors = append(r.sensors, s)
		s.plan = s.interleave(s.order, 0, 0)
		e, err := stream.New(r.config(s))
		if err != nil {
			r.fatalf("sensor %d: %v", i, err)
		}
		s.up(e)
	}
	interval := time.Hour // polled: syncs are the program's
	if r.p.Sync == "follow" {
		interval = followInterval
	}
	a, err := distrib.NewAggregator(distrib.Config{Input: r.fx.in, Sensors: urls, Interval: interval})
	if err != nil {
		r.fatalf("aggregator: %v", err)
	}
	r.agg = a
	if r.p.Sync == "follow" {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Run(ctx)
		}()
		r.stopAgg = func() {
			cancel()
			<-done
		}
	}
}

func (r *run) stop() {
	if r.stopAgg != nil {
		r.stopAgg()
	}
	for _, s := range r.sensors {
		if s.eng != nil {
			s.down()
		}
		s.http.Close()
	}
}

// up serves e at the sensor's address and returns the sequence it
// numbers from.
func (s *sensor) up(e *stream.Engine) uint64 {
	st, err := e.Export(0, 0)
	if err != nil {
		s.r.fatalf("sensor %d: export: %v", s.i, err)
	}
	s.eng, s.srv, s.epoch = e, distrib.NewSensor(e, nil, nil), st.Epoch
	h := s.srv.Handler()
	s.handler.Store(&h)
	return st.NextSeq
}

// restarted records what the next sync owes this sensor: a full resync
// when the aggregator holds a cursor stale says cannot be continued, and
// none otherwise. It is checked on polled syncs after one restart: a
// followed aggregator may still be applying what the dead process sent.
func (s *sensor) restarted(stale func(distrib.SensorStatus) bool) {
	if s.restarts++; s.restarts > 1 || s.r.p.Sync != "poll" {
		return
	}
	st := s.r.agg.SensorStatuses()[s.i]
	s.resyncs, s.wantResync = st.FullResyncs, st.Cursor > 0 && stale(st)
}

// down is the process dying: the address refuses, followed streams end,
// the engine closes, and nothing is checkpointed.
func (s *sensor) down() {
	s.handler.Store(nil)
	s.srv.Close()
	s.eng.Close()
	s.eng, s.srv = nil, nil
}

// interleave plans the certificates from nk and the connections from nc
// on in order o, behind a placeholder for the nk+nc events already fed.
func (s *sensor) interleave(o Order, nk, nc int) []int32 {
	certs, conns := len(s.r.fx.certs), len(s.conns)
	plan := make([]int32, 0, certs+conns)
	for k := 0; k < nk; k++ {
		plan = append(plan, ^int32(k))
	}
	for c := 0; c < nc; c++ {
		plan = append(plan, int32(c))
	}
	k, c := nk, nc
	cert := func() { plan = append(plan, ^int32(k)); k++ }
	conn := func() { plan = append(plan, int32(c)); c++ }
	switch o.Kind {
	case "conns-first":
		for c < conns {
			conn()
		}
	case "chunk":
		for k < certs || c < conns {
			for i := 0; i < o.K && k < certs; i++ {
				cert()
			}
			for i := 0; i < o.M && c < conns; i++ {
				conn()
			}
		}
	case "perm":
		rng := rand.New(rand.NewSource(int64(o.Seed)))
		for k < certs || c < conns {
			if rng.Intn(certs-k+conns-c) < certs-k {
				cert()
			} else {
				conn()
			}
		}
	}
	for k < certs {
		cert()
	}
	for c < conns {
		conn()
	}
	return plan
}

// other is the interleaving a restart re-reads in when the program names
// none: a different one from the sensor's current.
func other(o Order) Order {
	if o.Kind == "certs-first" {
		return Order{Kind: "conns-first"}
	}
	return Order{Kind: "certs-first"}
}

func (s *sensor) target(pos int) int { return pos * len(s.plan) / 1000 }

// feedTo feeds the plan up to event target, in runs of one kind at most
// Batch long, and records in the model what each call returned.
func (s *sensor) feedTo(target int) {
	r, fx := s.r, s.r.fx
	for s.fed < target {
		lo, cert := s.fed, s.plan[s.fed] < 0
		hi := lo + 1
		for hi < target && hi-lo < r.p.Batch && (s.plan[hi] < 0) == cert {
			hi++
		}
		evs := s.plan[lo:hi]
		if cert {
			recs := make([]core.CertRecord, len(evs))
			for i, ev := range evs {
				recs[i] = fx.certs[^ev]
			}
			if n := s.eng.IngestCertBatch(recs); n != len(recs) {
				r.fatalf("sensor %d: IngestCertBatch accepted %d of %d", s.i, n, len(recs))
			}
			s.m.certs += len(evs)
		} else {
			recs := make([]core.ConnRecord, len(evs))
			for i, ev := range evs {
				recs[i] = fx.conns[s.conns[ev]]
			}
			switch n := s.eng.IngestConnBatch(recs); {
			case n == len(recs):
				for _, ev := range evs {
					r.accept(&s.m, s.conns[ev])
				}
			case n == 0 && r.p.Policy == "drop":
				s.m.shed += uint64(len(recs))
				r.shed = true
			default:
				r.fatalf("sensor %d: IngestConnBatch accepted %d of %d under %s", s.i, n, len(recs), r.p.Policy)
			}
		}
		s.m.events = append(s.m.events, evs...)
		s.fed = hi
	}
}

// advance moves the feed to pos (never back) on every live sensor.
func (r *run) advance(pos int) {
	r.pos = max(r.pos, pos)
	for _, s := range r.sensors {
		if s.eng != nil {
			s.feedTo(s.target(r.pos))
		}
	}
}

func (r *run) selected(op Op) []*sensor {
	if op.Sensor < 0 {
		return r.sensors
	}
	return r.sensors[op.Sensor : op.Sensor+1]
}

func (r *run) step(op Op) {
	r.tb.Helper()
	if op.At >= 0 {
		r.advance(op.At)
	}
	switch op.Name {
	case "read":
		for _, s := range r.selected(op) {
			if s.eng != nil {
				s.read()
			}
		}
	case "ck", "compact", "crash", "kill":
		for _, s := range r.selected(op) {
			if s.eng == nil {
				continue
			}
			switch op.Name {
			case "ck":
				if err := s.checkpoint(); err != nil {
					r.fatalf("sensor %d: checkpoint: %v", s.i, err)
				}
			case "compact":
				s.compact()
			case "crash":
				s.crash(op)
			case "kill":
				s.down()
			}
		}
	case "restore", "fresh":
		for _, s := range r.selected(op) {
			o := other(s.order)
			if op.Order != nil {
				o = *op.Order
			}
			if op.Name == "restore" {
				s.restore(o)
			} else {
				s.fresh(o)
			}
		}
	case "sync":
		r.sync(true)
	}
	r.checkStats(op.String())
}

// checkpoint commits the drained engine with a cursor naming how far each
// log was read and which commit this is.
func (s *sensor) checkpoint() error {
	s.eng.Drain()
	if s.r.p.Ret > 0 { // a commit sweeps the window first
		s.m.sweeps = append(s.m.sweeps, sweep{kept: len(s.m.kept), cutoff: s.m.wm.Add(-s.r.retention())})
	}
	s.r.commits++
	id, mk := s.r.commits, s.m.mark()
	mk.epoch = s.epoch
	s.commits[id] = mk
	err := s.eng.WriteCheckpoint(s.dir, map[string]int64{
		"certs": int64(mk.certs), "conns": int64(mk.conns), "commit": id})
	if err == nil {
		s.last = id
	}
	return err
}

func (s *sensor) compact() {
	if s.last == 0 {
		if err := s.checkpoint(); err != nil {
			s.r.fatalf("sensor %d: checkpoint: %v", s.i, err)
		}
	}
	if err := s.eng.Compact(); err != nil {
		s.r.fatalf("sensor %d: compact: %v", s.i, err)
	}
}

// crash fails a commit at op.Stage and kills the process. A restore then
// reads the commit before it — or, when only the directory sync failed,
// the one that was renamed into place. A compaction that crashes folds a
// chain of at least two segments: the sensor commits first.
func (s *sensor) crash(op Op) {
	r := s.r
	for n := 0; op.Compact && n < 2; n++ {
		if n == 0 && s.last != 0 {
			continue
		}
		if err := s.checkpoint(); err != nil {
			r.fatalf("sensor %d: checkpoint: %v", s.i, err)
		}
	}
	armed.Store(s.dir, atomicfile.Stage(op.Stage))
	var err error
	if op.Compact {
		err = s.eng.Compact()
	} else {
		err = s.checkpoint()
		if op.Stage == "syncdir" {
			s.last = r.commits
		}
	}
	armed.Delete(s.dir)
	if !errors.Is(err, errCrash) {
		r.fatalf("sensor %d: a commit crashed at %s returned %v", s.i, op.Stage, err)
	}
	s.down()
}

// restore restarts the sensor on its checkpoint and re-reads its logs
// from the stored cursor up to where the feed is, in order o.
func (s *sensor) restore(o Order) {
	r := s.r
	if s.eng != nil {
		s.down()
	}
	e, cursor, err := stream.Restore(r.config(s), s.dir)
	if errors.Is(err, os.ErrNotExist) && s.last == 0 {
		s.fresh(o)
		return
	}
	if err != nil {
		r.fatalf("sensor %d: restore: %v", s.i, err)
	}
	if cursor["commit"] != s.last {
		r.fatalf("sensor %d: restored commit %d, want %d", s.i, cursor["commit"], s.last)
	}
	mk := s.commits[s.last]
	if cursor["certs"] != int64(mk.certs) || cursor["conns"] != int64(mk.conns) {
		r.fatalf("sensor %d: restored cursor %v, committed %+v", s.i, cursor, mk)
	}
	s.m.truncate(mk)
	s.order, s.plan, s.fed = o, s.interleave(o, mk.certs, mk.conns), mk.certs+mk.conns
	// A cursor of the committing engine's numbering is continued up to
	// the sequence restored; any other is stale.
	next := s.up(e)
	s.restarted(func(st distrib.SensorStatus) bool { return st.Epoch != mk.epoch || st.Cursor > next })
	s.feedTo(s.target(r.pos))
}

// fresh restarts the sensor without its checkpoint: a new engine, a new
// numbering, every log re-read from the start in order o.
func (s *sensor) fresh(o Order) {
	r := s.r
	if s.eng != nil {
		s.down()
	}
	s.dir, s.last, s.commits = filepath.Join(r.tb.TempDir(), "ckpt"), 0, map[int64]mark{}
	s.m = model{}
	s.order, s.plan, s.fed = o, s.interleave(o, 0, 0), 0
	e, err := stream.New(r.config(s))
	if err != nil {
		r.fatalf("sensor %d: %v", s.i, err)
	}
	s.up(e)
	s.restarted(func(distrib.SensorStatus) bool { return true })
	s.feedTo(s.target(r.pos))
}

// read is a mid-stream read: the drained engine's Analysis equals the
// model's over what it admitted.
func (s *sensor) read() {
	s.eng.Drain()
	got := s.eng.Analysis()
	if want := s.r.modelPipeline([]*sensor{s}, s.r.retains).RunAll(); !reflect.DeepEqual(got, want) {
		s.r.fatalf("sensor %d: a mid-stream read differs from the model in %v", s.i, diffFields(got, want))
	}
}

func (r *run) live() bool {
	for _, s := range r.sensors {
		if s.eng == nil {
			return false
		}
	}
	return true
}

// sync brings the aggregator current with every live sensor — one SyncAll,
// or the followed streams catching up — and, when none is down, holds its
// Stats and, with read, its Analysis to the model of the whole fleet.
func (r *run) sync(read bool) {
	for _, s := range r.sensors {
		if s.eng != nil {
			s.eng.Drain()
		}
	}
	if r.p.Sync == "poll" {
		err := r.agg.SyncAll(context.Background())
		if live := r.live(); live && err != nil {
			r.fatalf("SyncAll: %v", err)
		} else if !live && err == nil {
			r.fatalf("SyncAll reached a sensor that is down")
		}
	} else {
		r.awaitFollowed()
	}
	if !r.live() {
		return
	}
	wm := r.aggWatermark()
	r.checkAgg(wm)
	for i, st := range r.agg.SensorStatuses() {
		s := r.sensors[i]
		if s.restarts == 1 && r.p.Sync == "poll" && (st.FullResyncs > s.resyncs) != s.wantResync {
			r.fatalf("sensor %d: %d full resyncs after a restart, want them iff the cursor could not be continued (%v)",
				i, st.FullResyncs-s.resyncs, s.wantResync)
		}
		s.restarts = 0
	}
	if !read {
		return
	}
	got, want := r.agg.Analysis(), r.modelPipeline(r.sensors, r.window(wm)).RunAll()
	if g, w := jsonOf(r, got), jsonOf(r, want); g != w {
		r.fatalf("the aggregator differs from the model of its sensors in %v (aggregator holds %d connections, the sensors %d)",
			diffFields(got, want), got.Preprocess.RawConns, want.Preprocess.RawConns)
	}
}

// awaitFollowed waits until every live sensor's cursor and epoch at the
// aggregator are its engine's.
func (r *run) awaitFollowed() {
	want := make([]*stream.ExportState, len(r.sensors))
	for i, s := range r.sensors {
		if s.eng == nil {
			continue
		}
		st, err := s.eng.Export(0, 0)
		if err != nil {
			r.fatalf("sensor %d: export: %v", i, err)
		}
		want[i] = st
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		caught := true
		for i, st := range r.agg.SensorStatuses() {
			if want[i] != nil && (st.Cursor != want[i].NextSeq || st.Epoch != want[i].Epoch) {
				caught = false
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			r.fatalf("the followed sensors did not catch up: %+v", r.agg.SensorStatuses())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newest is the newest timestamp among what ss accepted: an engine's
// watermark.
func (r *run) newest(ss []*sensor) time.Time {
	var wm time.Time
	for _, s := range ss {
		for _, k := range s.m.kept {
			if ts := r.fx.conns[k].TS; ts.After(wm) {
				wm = ts
			}
		}
	}
	return wm
}

// window is the aggregator's: exactly what lies behind watermark wm by no
// more than the retention, since it evicts on every sync.
func (r *run) window(wm time.Time) holds {
	cutoff := wm.Add(-r.retention())
	return func(s *sensor, i int) bool { return r.p.Ret == 0 || !r.fx.conns[s.m.kept[i]].TS.Before(cutoff) }
}

// aggWatermark is the aggregator's watermark, held to the fleet: the
// newest timestamp a sensor holds now, unless a sensor that restarted
// shed on its re-read what it had reported — the aggregator's clock never
// goes back — and never past the newest timestamp ever accepted.
func (r *run) aggWatermark() time.Time {
	got, now := r.agg.Stats().Watermark, r.newest(r.sensors)
	if !got.Equal(now) && (r.p.Policy != "drop" || got.Before(now) || got.After(r.newestEver)) {
		r.fatalf("aggregator watermark %v, the fleet's %v (newest ever accepted %v)", got, now, r.newestEver)
	}
	return got
}

// modelPipeline is the reference over what ss admitted: their rosters,
// their retained accepted connections, and the §3.2 verdict of the union
// of what their detectors observed — shed connections included.
func (r *run) modelPipeline(ss []*sensor, in holds) *core.Pipeline {
	merge := interception.NewMerge(0)
	seen := map[ids.Fingerprint]bool{}
	var states []core.ShardState
	var seq uint64
	raw := 0
	for _, s := range ss {
		merge.AbsorbEvidence(interception.EvidenceOf(s.detector().Pairs(0)))
		st := core.ShardState{Certs: s.m.roster}
		for _, c := range s.m.roster {
			seen[c.Fingerprint] = true
		}
		for i, k := range s.m.kept {
			if in(s, i) {
				st.Conns = append(st.Conns, r.fx.conns[k])
				st.Seqs = append(st.Seqs, seq)
				seq++
			}
		}
		raw += len(s.m.kept)
		states = append(states, st)
	}
	res := merge.Result()
	pre := &core.PreprocessReport{
		InterceptionIssuers: res.Issuers,
		ExcludedCerts:       len(res.ExcludedCerts),
		ExcludedShare:       res.ExcludedShare(len(seen)),
		RawCerts:            len(seen),
		RawConns:            raw,
	}
	return core.MergeShards(r.fx.in, states, res.Excludes).Pipeline(pre)
}

// checkStats holds every live engine's Stats to its model: the counters,
// the retained window and the three §3.2 numbers.
func (r *run) checkStats(step string) {
	for _, s := range r.sensors {
		if s.eng == nil {
			continue
		}
		s.eng.Drain()
		st, d := s.eng.Stats(), s.detector()
		retained := 0
		for i := range s.m.kept {
			if r.retains(s, i) {
				retained++
			}
		}
		want := stream.Stats{
			ConnsIngested: uint64(len(s.m.kept)), CertsIngested: uint64(s.m.certs), Dropped: s.m.shed,
			Retained: retained, Evicted: uint64(len(s.m.kept) - retained),
			UniqueCerts: len(s.m.roster), ExcludedCerts: d.ExcludedCount(),
			InterceptionIssuers: d.ConfirmedCount(), PendingCerts: d.PendingCount(),
		}
		got := st
		got.Rebuilds, got.Dirty, got.Watermark, got.LastCheckpoint, got.CheckpointAge = 0, false, time.Time{}, time.Time{}, 0
		if got != want {
			r.fatalf("after %s: sensor %d Stats\n\t%+v\nthe model\n\t%+v", step, s.i, got, want)
		}
	}
}

// checkAgg holds the aggregator's Stats to the model of the fleet.
func (r *run) checkAgg(wm time.Time) {
	st := r.agg.Stats()
	merge := interception.NewMerge(0)
	seen := map[ids.Fingerprint]bool{}
	var conns uint64
	pending, retained := 0, 0
	in := r.window(wm)
	for _, s := range r.sensors {
		d := s.detector()
		merge.AbsorbEvidence(interception.EvidenceOf(d.Pairs(0)))
		pending += d.PendingCount()
		for _, c := range s.m.roster {
			seen[c.Fingerprint] = true
		}
		conns += uint64(len(s.m.kept))
		for i := range s.m.kept {
			if in(s, i) {
				retained++
			}
		}
	}
	if st.ConnsIngested != conns || st.UniqueCerts != len(seen) || st.Retained != retained ||
		st.ExcludedCerts != merge.ExcludedCount() || st.InterceptionIssuers != merge.ConfirmedCount() || st.PendingCerts != pending {
		r.fatalf("aggregator Stats %d conns / %d certs / %d retained / %d excluded / %d issuers / %d pending, the model %d / %d / %d / %d / %d / %d",
			st.ConnsIngested, st.UniqueCerts, st.Retained, st.ExcludedCerts, st.InterceptionIssuers, st.PendingCerts,
			conns, len(seen), retained, merge.ExcludedCount(), merge.ConfirmedCount(), pending)
	}
}

// end feeds the rest, restarts every sensor that is down, syncs, and holds
// the aggregator — and at one sensor the engine itself — to the reference.
func (r *run) end() {
	r.advance(1000)
	for _, s := range r.sensors {
		if s.eng == nil {
			s.restore(other(s.order))
		}
	}
	r.sync(false) // the reports are held to the reference below
	r.checkStats("end")

	if r.p.Sensors == 1 {
		// The engine's own window is what its last sweep left.
		e := r.sensors[0].eng
		want, reports := r.fx.batch, r.fx.reports
		if r.p.Ret > 0 || r.shed {
			p := r.modelPipeline(r.sensors, r.retains)
			want, reports = p.RunAll(), r.reportsOf(pipeline{p})
		}
		if got := e.Analysis(); !reflect.DeepEqual(got, want) {
			r.fatalf("the engine differs from the reference in %v", diffFields(got, want))
		}
		r.compareReports("the engine", e, reports)
	}
	// The aggregator's 23 reports, which are its Analysis field by field:
	// the batch pipeline's; under Drop once a batch was shed, the model's;
	// under retention, one engine's over the union.
	reports := r.fx.reports
	switch {
	case r.shed:
		reports = r.reportsOf(pipeline{r.modelPipeline(r.sensors, r.window(r.aggWatermark()))})
	case r.p.Ret > 0:
		u := r.union()
		defer u.Close()
		reports = r.reportsOf(u)
	}
	r.compareReports("the aggregator", r.agg, reports)

	// Read, the view is clean, and a sync that brings nothing — an empty
	// delta, or a followed sensor's heartbeats — leaves it so.
	if r.p.Sync == "poll" {
		if err := r.agg.SyncAll(context.Background()); err != nil {
			r.fatalf("SyncAll: %v", err)
		}
	} else {
		time.Sleep(3 * followInterval)
	}
	if r.agg.Stats().Dirty {
		r.fatalf("a sync that brought nothing dirtied the aggregator's view")
	}
}

func (r *run) reportsOf(m stream.Materializer) map[string]string {
	reports, err := reportsOf(m)
	if err != nil {
		r.fatalf("reference: %v", err)
	}
	return reports
}

// union is the reference under retention: one engine with the program's
// window, fed every certificate and then each sensor's accepted
// connections in the order they were fed.
func (r *run) union() *stream.Engine {
	// One sweep, after the last connection: exactly the window behind the
	// newest timestamp.
	n := 0
	for _, s := range r.sensors {
		n += len(s.m.kept)
	}
	u, err := stream.New(stream.Config{Input: r.fx.in, Retention: r.retention(), EvictEvery: max(n, 1)})
	if err != nil {
		r.fatalf("union engine: %v", err)
	}
	u.IngestCertBatch(r.fx.certs)
	for _, s := range r.sensors {
		recs := make([]core.ConnRecord, len(s.m.kept))
		for i, k := range s.m.kept {
			recs[i] = r.fx.conns[k]
		}
		if n := u.IngestConnBatch(recs); n != len(recs) {
			r.fatalf("union engine accepted %d of %d", n, len(recs))
		}
	}
	u.Drain()
	return u
}

func (r *run) compareReports(what string, m stream.Materializer, want map[string]string) {
	got, err := reportsOf(m)
	if err != nil {
		r.fatalf("%s: %v", what, err)
	}
	for _, name := range stream.ReportNames() {
		if got[name] != want[name] {
			r.fatalf("%s: report %s differs from the reference", what, name)
		}
	}
}

func jsonOf(r *run, a *core.Analysis) string {
	buf, err := json.Marshal(a)
	if err != nil {
		r.fatalf("encode analysis: %v", err)
	}
	return string(buf)
}

// diffFields names the Analysis fields that differ, for the failure line.
func diffFields(got, want *core.Analysis) []string {
	var out []string
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		gb, _ := json.Marshal(g.Field(i).Interface())
		wb, _ := json.Marshal(w.Field(i).Interface())
		if string(gb) != string(wb) {
			out = append(out, g.Type().Field(i).Name)
		}
	}
	return out
}

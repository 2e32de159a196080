package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// span is one timed call into a layer. Spans are recorded from this
// package only — around the exported functions of each layer — kept in
// memory, and written out when the walk ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the root has no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`  // rows or events the call processed
	Allocs uint64 `json:"allocs,omitempty"` // heap objects allocated meanwhile, process-wide
}

// tracer records a tree of spans from one goroutine. With off set it
// records nothing and do is a plain call: the same chain run both ways
// is what prices the tracing itself.
type tracer struct {
	t0    time.Time
	off   bool
	spans []span
	stack []int // open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// do runs fn inside a span named name; fn returns how many rows or
// events it processed.
func (t *tracer) do(name string, fn func() (int64, error)) error {
	if t.off {
		_, err := fn()
		return err
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	a0 := heapAllocs()
	start := time.Since(t.t0)
	count, err := fn()
	end := time.Since(t.t0)
	s := &t.spans[id-1]
	s.Start, s.End, s.Count, s.Allocs = int64(start), int64(end), count, heapAllocs()-a0
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// layerRow is one line of the per-layer table: all spans of one name.
type layerRow struct {
	Name   string
	Calls  int
	Total  time.Duration // sum of span durations
	Self   time.Duration // Total minus the time covered by child spans
	Count  int64
	Allocs uint64
}

// table folds the spans by name. A span's self time is its duration
// minus its children's, so the self times of all spans add up to the
// root span's duration.
func (t *tracer) table() []layerRow {
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.Calls++
		r.Total += time.Duration(s.End - s.Start)
		r.Self += time.Duration(s.End - s.Start - child[s.ID])
		r.Count += s.Count
		r.Allocs += s.Allocs
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

func (t *tracer) row(name string) layerRow {
	for _, r := range t.table() {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"mtlsbench-trace/1", t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %6s %11s %11s %10s %11s %11s\n", "span", "calls", "total ms", "self ms", "count", "ns/row", "allocs/row")
	for _, r := range rows {
		perRow, allocs := "-", "-"
		if r.Count > 0 {
			perRow = strconv.FormatFloat(float64(r.Total)/float64(r.Count), 'f', 0, 64)
			allocs = strconv.FormatFloat(float64(r.Allocs)/float64(r.Count), 'f', 2, 64)
		}
		fmt.Fprintf(w, "%-28s %6d %11.2f %11.2f %10d %11s %11s\n", r.Name, r.Calls, ms(r.Total), ms(r.Self), r.Count, perRow, allocs)
	}
}

const (
	walkBatch = zeek.DefaultBatchSize
	// diskEvents caps the disk-store ingest of the walk: under a 1 MiB hot
	// budget the store runs at a few thousand events a second, and the
	// walk prices its thrash loop, not its endurance.
	diskEvents = 8000
	// deltaConns is the checkpoint interval the delta commit covers.
	deltaConns = 512
)

// walker carries the walk's state from layer to layer.
type walker struct {
	t      *tracer
	e      env
	in     *input
	ctx    *core.Input // analysis context, Raw nil
	sslTSV []byte      // header + every connection row
	x5TSV  []byte      // header + every roster certificate row
	conns  []zeek.SSLRecord
	certs  []zeek.X509Record
	eng    *stream.Engine    // the traced chain's engine, kept for the checkpoint steps
	reg    *metrics.Registry // its metrics
	out    map[string]float64
}

// walk takes the input's dataset through every layer's exported
// functions, in process, one layer at a time: generate → render → parse →
// tail → ingest → rebuild → report scan → JSON, then checkpoint/restore,
// the snapshot codec, the sharded and disk-backed engines and the batch
// pipeline. It returns the spans and the per-layer metrics derived from
// them. The daemon never sees any of this; its numbers are scraped.
func walk(e env, in *input) (*tracer, map[string]float64, error) {
	w := &walker{t: newTracer(), e: e, in: in, out: map[string]float64{}}
	w.ctx = mtls.InputFromBuild(in.Build)
	w.ctx.Raw = nil

	// The chain a row travels in the daemon, first untraced and timed
	// only as a whole, then traced (the walk's first step, so both start
	// from the same heap): the difference is the tracing.
	runtime.GC() // both runs of the chain start from a collected heap
	start := time.Now()
	if err := w.chain(&tracer{off: true}); err != nil {
		return nil, nil, err
	}
	plain := time.Since(start)
	w.eng.Close()
	runtime.GC()
	err := w.t.do("walk", func() (int64, error) {
		for _, step := range []func() error{
			w.chainTraced, w.tail, w.checkpoints, w.snapshot, w.sharded, w.disk, w.batch, w.generate,
		} {
			if err := step(); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return nil, nil, err
	}
	traced := w.t.row("chain").Total
	w.out["trace.overhead_share"] = (traced - plain).Seconds() / plain.Seconds()
	var self time.Duration
	for _, r := range w.t.table() {
		self += r.Self
	}
	w.out["trace.self_sum_share"] = self.Seconds() / w.t.row("walk").Total.Seconds()
	return w.t, w.out, nil
}

func (w *walker) perRow(metric, spanName string) {
	if r := w.t.row(spanName); r.Count > 0 {
		w.out[metric] = float64(r.Total) / float64(r.Count)
	}
}

func (w *walker) perRowAllocs(metric string, spanNames ...string) {
	var allocs uint64
	var count int64
	for _, n := range spanNames {
		r := w.t.row(n)
		allocs += r.Allocs
		count += r.Count
	}
	if count > 0 {
		w.out[metric] = float64(allocs) / float64(count)
	}
}

func (w *walker) millis(metric, spanName string) { w.out[metric] = ms(w.t.row(spanName).Total) }

// generate prices the generator (which mtlsd also runs at every start to
// rebuild its analysis context) and the spec parser.
func (w *walker) generate() error {
	err := w.t.do("workload.generate", func() (int64, error) {
		b, err := mtls.Generate(w.in.Spec, mtls.WithScale(w.in.W.Scale), mtls.WithSeed(w.in.Seed))
		if err != nil {
			return 0, err
		}
		return int64(len(b.Raw.Conns) + len(b.Raw.Certs)), nil
	})
	if err != nil {
		return err
	}
	w.perRow("workload.generate_ns_per_row", "workload.generate")
	yaml := []byte(scenario.Render(w.in.Spec))
	const parses = 20 // one parse is tens of microseconds
	err = w.t.do("scenario.parse", func() (int64, error) {
		for i := 0; i < parses; i++ {
			if _, err := scenario.Parse(yaml); err != nil {
				return 0, err
			}
		}
		return parses, nil
	})
	w.out["scenario.parse_us"] = float64(w.t.row("scenario.parse").Total) / parses / 1e3
	return err
}

// render produces the TSV the rest of the chain reads, through the
// repo's writers.
func (w *walker) render(t *tracer) error {
	conns, roster := w.in.Build.Raw.Conns, w.in.Plan.Roster
	err := t.do("zeek.render_ssl", func() (int64, error) {
		var buf bytes.Buffer
		sw := zeek.NewSSLWriter(&buf)
		sw.Extended = w.in.Extended
		for i := range conns {
			if err := sw.Write(&conns[i]); err != nil {
				return 0, err
			}
		}
		err := sw.Flush()
		w.sslTSV = buf.Bytes()
		return int64(len(conns)), err
	})
	if err != nil {
		return err
	}
	return t.do("zeek.render_x509", func() (int64, error) {
		var buf bytes.Buffer
		xw := zeek.NewX509Writer(&buf)
		for i := range roster {
			if err := xw.Write(&roster[i]); err != nil {
				return 0, err
			}
		}
		err := xw.Flush()
		w.x5TSV = buf.Bytes()
		return int64(len(roster)), err
	})
}

// parse reads the TSV back in batches, as OpenLogs and the tailer do.
func (w *walker) parse(t *tracer) error {
	w.conns, w.certs = w.conns[:0], w.certs[:0]
	err := t.do("zeek.parse_x509", func() (int64, error) {
		err := zeek.ForEachX509Batch(bytes.NewReader(w.x5TSV), func(recs []zeek.X509Record) error {
			w.certs = append(w.certs, recs...)
			return nil
		}, zeek.Strict())
		return int64(len(w.certs)), err
	})
	if err != nil {
		return err
	}
	return t.do("zeek.parse_ssl", func() (int64, error) {
		err := zeek.ForEachSSLBatch(bytes.NewReader(w.sslTSV), func(recs []zeek.SSLRecord) error {
			w.conns = append(w.conns, recs...)
			return nil
		}, zeek.Strict())
		return int64(len(w.conns)), err
	})
}

// feed ingests certificates then connections in tailer-sized batches
// and drains, as one span.
func feed(t *tracer, name string, eng interface {
	IngestCertBatch([]core.CertRecord) int
	IngestConnBatch([]core.ConnRecord) int
	Drain()
}, certs []zeek.X509Record, conns []zeek.SSLRecord) error {
	return t.do(name, func() (int64, error) {
		for lo := 0; lo < len(certs); lo += walkBatch {
			eng.IngestCertBatch(certs[lo:min(lo+walkBatch, len(certs))])
		}
		for lo := 0; lo < len(conns); lo += walkBatch {
			eng.IngestConnBatch(conns[lo:min(lo+walkBatch, len(conns))])
		}
		eng.Drain()
		return int64(len(certs) + len(conns)), nil
	})
}

// chain is render → parse → ingest → first report (pays the rebuild) →
// scan of all 23 reports with the daemon's JSON encoding. It leaves the
// engine in w.eng.
func (w *walker) chain(t *tracer) error {
	return t.do("chain", func() (int64, error) {
		if err := w.render(t); err != nil {
			return 0, err
		}
		if err := w.parse(t); err != nil {
			return 0, err
		}
		w.reg = metrics.New()
		var err error
		if w.eng, err = stream.New(stream.Config{Input: w.ctx, Metrics: w.reg}); err != nil {
			return 0, err
		}
		// The last deltaConns connections are held back: they become the
		// interval the delta checkpoint commits.
		if err := feed(t, "stream.ingest", w.eng, w.certs, w.conns[:len(w.conns)-deltaConns]); err != nil {
			return 0, err
		}
		// The first materialization after a feed pays the pending rebuild
		// (the interception verdicts changed while rows streamed in); the
		// preprocess report itself is a handful of counters.
		err = t.do("stream.rebuild", func() (int64, error) {
			_, err := w.eng.Report("preprocess")
			return 0, err
		})
		if err != nil {
			return 0, err
		}
		return 0, t.do("stream.report_scan", func() (int64, error) {
			for _, name := range stream.ReportNames() {
				var rep any
				err := t.do("report:"+name, func() (int64, error) {
					var err error
					rep, err = w.eng.Report(name)
					return 0, err
				})
				if err != nil {
					return 0, err
				}
				err = t.do("mtlsd.json_encode", func() (int64, error) {
					enc := json.NewEncoder(io.Discard)
					enc.SetIndent("", "  ") // as mtlsd's writeJSON does
					return 0, enc.Encode(rep)
				})
				if err != nil {
					return 0, err
				}
			}
			return int64(len(stream.ReportNames())), nil
		})
	})
}

func (w *walker) chainTraced() error {
	if err := w.chain(w.t); err != nil {
		return err
	}
	w.perRow("zeek.render_ssl_ns_per_row", "zeek.render_ssl")
	w.perRow("zeek.render_x509_ns_per_row", "zeek.render_x509")
	w.perRow("zeek.parse_ssl_ns_per_row", "zeek.parse_ssl")
	w.perRow("zeek.parse_x509_ns_per_row", "zeek.parse_x509")
	w.perRowAllocs("zeek.parse_allocs_per_row", "zeek.parse_ssl", "zeek.parse_x509")
	w.perRow("stream.ingest_ns_per_event", "stream.ingest")
	w.perRowAllocs("stream.ingest_allocs_per_event", "stream.ingest")
	w.millis("stream.rebuild_ms", "stream.rebuild")
	w.out["stream.report_scan_ms"] = ms(w.t.row("stream.report_scan").Total - w.t.row("mtlsd.json_encode").Total)
	w.millis("mtlsd.json_encode_ms", "mtlsd.json_encode")
	for _, r := range w.t.table() {
		if strings.HasPrefix(r.Name, "report:") {
			w.out["stream.report_slowest_ms"] = max(w.out["stream.report_slowest_ms"], ms(r.Total))
		}
	}
	return nil
}

// tail writes the TSV to files and polls them dry with the tailers the
// daemon uses: read, split, parse, intern.
func (w *walker) tail() error {
	dir := filepath.Join(w.e.Dir, "tail")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ssl.log"), w.sslTSV, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "x509.log"), w.x5TSV, 0o644); err != nil {
		return err
	}
	err := w.t.do("zeek.tail_poll", func() (int64, error) {
		var rows int64
		xt := zeek.NewX509Tail(filepath.Join(dir, "x509.log"))
		for {
			recs, err := xt.Poll()
			if err != nil {
				return rows, err
			}
			if len(recs) == 0 {
				break
			}
			rows += int64(len(recs))
		}
		st := zeek.NewSSLTail(filepath.Join(dir, "ssl.log"))
		for {
			recs, err := st.Poll()
			if err != nil {
				return rows, err
			}
			if len(recs) == 0 {
				break
			}
			rows += int64(len(recs))
		}
		return rows, nil
	})
	w.perRow("zeek.tail_poll_ns_per_row", "zeek.tail_poll")
	return err
}

// checkpoints prices the durability side: the base commit, a delta over
// one interval, the legacy full rewrite, compaction and restore.
func (w *walker) checkpoints() error {
	eng := w.eng
	defer eng.Close()
	dir := filepath.Join(w.e.Dir, "ckpt")
	cursor := map[string]int64{"ssl.log": int64(len(w.sslTSV)), "x509.log": int64(len(w.x5TSV))}
	err := w.t.do("stream.checkpoint_base", func() (int64, error) { return 0, eng.WriteCheckpoint(dir, cursor) })
	if err != nil {
		return err
	}
	eng.IngestConnBatch(w.conns[len(w.conns)-deltaConns:])
	eng.Drain()
	err = w.t.do("stream.checkpoint_delta", func() (int64, error) { return deltaConns, eng.WriteCheckpoint(dir, cursor) })
	if err != nil {
		return err
	}
	w.millis("stream.checkpoint_delta_ms", "stream.checkpoint_delta")
	sum, err := regSum(w.reg)
	if err != nil {
		return err
	}
	w.out["stream.checkpoint_delta_bytes"] = sum["stream_checkpoint_bytes"] // repeats exactly for a seed
	err = w.t.do("stream.compact", func() (int64, error) { return 0, eng.Compact() })
	if err != nil {
		return err
	}
	w.millis("stream.compact_ms", "stream.compact")
	// An existing regular file at the path selects the legacy format: the
	// whole state rewritten every interval.
	legacy := filepath.Join(w.e.Dir, "legacy.ckpt")
	if err := os.WriteFile(legacy, nil, 0o644); err != nil {
		return err
	}
	err = w.t.do("stream.checkpoint_full", func() (int64, error) { return 0, eng.WriteCheckpoint(legacy, cursor) })
	if err != nil {
		return err
	}
	w.millis("stream.checkpoint_full_ms", "stream.checkpoint_full")
	err = w.t.do("stream.restore", func() (int64, error) {
		restored, _, err := stream.Restore(stream.Config{Input: w.ctx}, dir)
		if err != nil {
			return 0, err
		}
		n := restored.Stats().ConnsIngested
		restored.Close()
		if n != uint64(len(w.conns)) {
			return 0, fmt.Errorf("restore brought back %d connections, checkpoint held %d", n, len(w.conns))
		}
		return int64(n), nil
	})
	w.millis("stream.restore_ms", "stream.restore")
	return err
}

// snapshot prices what a sensor does for an aggregator: export the
// engine state, encode it for the wire, decode it on the other side.
func (w *walker) snapshot() error {
	eng, err := stream.New(stream.Config{Input: w.ctx, TrackExport: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := feed(w.t, "stream.ingest_tracked", eng, w.certs, w.conns); err != nil {
		return err
	}
	var st *stream.ExportState
	err = w.t.do("stream.export", func() (int64, error) {
		var err error
		st, err = eng.Export(0, 0)
		return int64(len(w.certs) + len(w.conns)), err
	})
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	err = w.t.do("distrib.encode", func() (int64, error) {
		return int64(len(st.Certs) + len(st.Conns)), distrib.Encode(&wire, distrib.FromExport(st))
	})
	if err != nil {
		return err
	}
	size := wire.Len()
	err = w.t.do("distrib.decode", func() (int64, error) {
		snap, err := distrib.Decode(&wire)
		if err != nil {
			return 0, err
		}
		return int64(len(snap.Certs) + len(snap.Conns)), nil
	})
	w.millis("stream.export_ms", "stream.export")
	w.millis("distrib.encode_ms", "distrib.encode")
	w.millis("distrib.decode_ms", "distrib.decode")
	w.out["distrib.snapshot_bytes_per_event"] = float64(size) / float64(len(st.Certs)+len(st.Conns))
	return err
}

// sharded prices the router and the merged view: the same feed through
// stream.Sharded, and core.MergeShards over the same rows dealt to as
// many shard states.
func (w *walker) sharded() error {
	n := resolveShards(shardsPerCPU)
	s, err := stream.NewSharded(n, stream.Config{Input: w.ctx})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := feed(w.t, "stream.ingest_sharded", s, w.certs, w.conns); err != nil {
		return err
	}
	w.perRow("stream.ingest_sharded_ns_per_event", "stream.ingest_sharded")
	// Sharded minus single is what routing costs (or, with idle CPUs,
	// what it buys: the figure may be negative).
	w.out["stream.route_ns_per_event"] = w.out["stream.ingest_sharded_ns_per_event"] - w.out["stream.ingest_ns_per_event"]

	shards := make([]core.ShardState, n)
	for i := range w.certs {
		shards[i%n].Certs = append(shards[i%n].Certs, w.certs[i].Cert)
	}
	for i := range w.conns {
		shards[i%n].Conns = append(shards[i%n].Conns, w.conns[i])
		shards[i%n].Seqs = append(shards[i%n].Seqs, uint64(i))
	}
	err = w.t.do("core.merge_shards", func() (int64, error) {
		b := core.MergeShards(w.ctx, shards, nil)
		if b.Conns() == 0 {
			return 0, fmt.Errorf("merge of %d shards is empty", n)
		}
		return int64(len(w.conns)), nil
	})
	w.millis("core.merge_shards_ms", "core.merge_shards")
	return err
}

// disk prices the tiered store under the hostile 1 MiB hot budget on a
// prefix of the events; the spill and load counts repeat exactly.
func (w *walker) disk() error {
	reg := metrics.New()
	eng, err := stream.New(stream.Config{Input: w.ctx, Metrics: reg,
		Store: "disk", StoreDir: filepath.Join(w.e.Dir, "store"), HotBytes: 1 << 20})
	if err != nil {
		return err
	}
	defer eng.Close()
	nCerts := min(len(w.certs), diskEvents/2)
	nConns := min(len(w.conns), diskEvents-nCerts)
	if err := feed(w.t, "store.disk_ingest", eng, w.certs[:nCerts], w.conns[:nConns]); err != nil {
		return err
	}
	w.perRow("store.disk_ingest_ns_per_event", "store.disk_ingest")
	sum, err := regSum(reg)
	if err != nil {
		return err
	}
	w.out["store.disk_spilled_records"] = sum["stream_store_spilled_total"]
	w.out["store.disk_loaded_records"] = sum["stream_store_loaded_total"]
	if spilled := sum["stream_store_spilled_total"]; spilled > 0 {
		w.out["store.disk_load_per_spill"] = sum["stream_store_loaded_total"] / spilled
	}
	return nil
}

// regSum reads an in-process registry the way the daemon's is scraped.
func regSum(reg *metrics.Registry) (map[string]float64, error) {
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		return nil, err
	}
	return promSum(text.String(), nil), nil
}

// batch prices the paper pipeline itself: preprocessing, the analyses
// (fanned out and serial), the text rendering — and the whole of it as
// the mtlsreport process over the same logs.
func (w *walker) batch() error {
	in := *mtls.InputFromBuild(w.in.Build)
	var p *core.Pipeline
	err := w.t.do("core.preprocess", func() (int64, error) {
		p = core.NewPipeline(&in)
		return int64(len(in.Raw.Conns)), nil
	})
	if err != nil {
		return err
	}
	var a *core.Analysis
	_ = w.t.do("core.analyze", func() (int64, error) { a = p.RunAll(); return 0, nil })
	_ = w.t.do("report.render", func() (int64, error) { return int64(len(report.RenderAll(a))), nil })
	serial := in
	serial.Workers = 1
	_ = w.t.do("core.preprocess_serial", func() (int64, error) {
		p = core.NewPipeline(&serial)
		return int64(len(in.Raw.Conns)), nil
	})
	_ = w.t.do("core.analyze_serial", func() (int64, error) { p.RunAll(); return 0, nil })
	w.millis("core.preprocess_ms", "core.preprocess")
	w.millis("core.analyze_ms", "core.analyze")
	w.millis("core.analyze_serial_ms", "core.analyze_serial")
	w.millis("report.render_ms", "report.render")

	if w.in.W.Fleet {
		return nil // mtlsreport rebuilds its context from the campus generator only
	}
	dir := filepath.Join(w.e.Dir, "tail") // the logs the tail step wrote
	err = w.t.do("mtlsreport", func() (int64, error) {
		cmd := exec.Command(filepath.Join(w.e.Bin, "mtlsreport"), "-logs", dir, "-strict",
			"-scale", strconv.Itoa(w.in.W.Scale), "-seed", strconv.FormatUint(w.in.Seed, 10))
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("mtlsreport: %w: %s", err, stderr.String())
		}
		return int64(len(w.conns) + len(w.certs)), nil
	})
	w.out["mtlsreport.batch_s"] = w.t.row("mtlsreport").Total.Seconds()
	return err
}

// walkOnly is `mtlsbench --trace 1` without a workload: the traced walk
// over one workload's dataset (backfill's), trace.json and the table.
func (h *harness) walkOnly(o options) int {
	path := filepath.Join(h.work, "trace.json")
	t, out, err := h.walkBackfill(o, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtlsbench:", err)
		return 1
	}
	printTable(os.Stdout, t.table())
	fmt.Println()
	for _, m := range perLayer {
		if v, ok := out[m.Name]; ok {
			fmt.Printf("  %-38s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	fmt.Printf("\n%d spans written to %s\n", len(t.spans), path)
	return 0
}

func (h *harness) walkBackfill(o options, tracePath string) (*tracer, map[string]float64, error) {
	w, _ := workloadByName("backfill")
	in, _, err := h.setup(w, o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	e, err := h.runDir("walk")
	if err != nil {
		return nil, nil, err
	}
	t, out, err := walk(e, in)
	if err != nil {
		return nil, nil, err
	}
	return t, out, t.write(tracePath)
}

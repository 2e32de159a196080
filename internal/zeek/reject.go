package zeek

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/metrics"
)

// Reason classifies why a row was rejected by the parser. The set is
// closed: every malformed row maps to exactly one reason, each reason is
// a label value of the RejectMetric series, and the fuzz seed corpora
// cover each one (corpus_test.go enforces this).
type Reason string

// Quarantine reasons. A 23-month deployment tallies rejections per
// reason so a sudden spike (a Zeek schema change, a corrupted disk) is
// visible on a dashboard instead of silently skewing every percentage.
const (
	// RejectFieldCount: the row does not have the schema's column count.
	RejectFieldCount Reason = "field_count"
	// RejectTimestamp: a ts/not_valid_before/not_valid_after column is
	// not a finite epoch-seconds value in the representable range.
	RejectTimestamp Reason = "timestamp"
	// RejectPort: an id.orig_p/id.resp_p column is not an integer in
	// [0, 65535].
	RejectPort Reason = "port"
	// RejectWeight: the weight column is not an integer >= 1. The writer
	// clamps weights to >= 1, so anything else corrupts weighted tallies.
	RejectWeight Reason = "weight"
	// RejectCertVersion: certificate.version is not a non-negative
	// integer.
	RejectCertVersion Reason = "cert_version"
	// RejectKeyLength: certificate.key_length is not a non-negative
	// integer.
	RejectKeyLength Reason = "key_length"
	// RejectOversizedLine: a tailed line exceeded the per-poll chunk cap
	// and was discarded wholesale (its length is unknowable until the
	// newline arrives).
	RejectOversizedLine Reason = "oversized_line"
)

// Reasons enumerates every quarantine reason.
var Reasons = []Reason{
	RejectFieldCount, RejectTimestamp, RejectPort, RejectWeight,
	RejectCertVersion, RejectKeyLength, RejectOversizedLine,
}

// RejectMetric is the per-(file, reason) rejection counter family the
// permissive parser publishes into Options.Metrics.
const RejectMetric = "zeek_rows_rejected_total"

const rejectHelp = "malformed log rows quarantined by the permissive parser"

// rejectFiles are the label values the readers use for RejectMetric's
// file label, one per log schema.
var rejectFiles = []string{"ssl", "x509"}

// RowError describes one malformed row: why it was rejected, where it
// was, and the raw line. In strict mode it is returned (wrapped) from
// the reader; in permissive mode it is routed to the quarantine instead.
type RowError struct {
	Reason Reason
	Line   int64  // 1-based line number in the source log
	Raw    string // the raw TSV line
	Err    error  // underlying cause
}

func (e *RowError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("zeek: line %d: %s: %v", e.Line, e.Reason, e.Err)
	}
	return fmt.Sprintf("zeek: %s: %v", e.Reason, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// rowErrf builds a RowError with a formatted cause. Line and Raw are
// filled in by the reader that knows them.
func rowErrf(reason Reason, format string, args ...any) *RowError {
	return &RowError{Reason: reason, Err: fmt.Errorf(format, args...)}
}

// Options selects how the streaming readers and tailers treat malformed
// rows. The zero value is permissive with no sinks: bad rows are
// silently skipped (never wedging ingestion), counted nowhere.
//
// Strict restores fail-stop semantics: the first malformed row aborts
// with an error describing it, and a tailer does not advance its offset
// past the offending line — nothing is ever dropped silently, at the
// cost of ingestion halting until an operator intervenes.
//
// Permissive (Strict == false) quarantines: the bad row is skipped, the
// offset advances so the poison pill is consumed exactly once, the
// per-reason counter in Metrics is incremented, and the raw line is
// appended to Quarantine for offline forensics.
type Options struct {
	Strict     bool
	Quarantine *Quarantine
	Metrics    *metrics.Registry
}

// DefaultBatchSize is the batch readers' record granularity
// (ForEachSSLBatch / ForEachX509Batch) — sized so one batch amortizes
// the engine's per-ingest channel hop without adding meaningful latency.
const DefaultBatchSize = 512

// reject routes one quarantined row to the configured sinks.
func (o *Options) reject(file string, re *RowError) {
	if o.Metrics != nil {
		o.Metrics.Counter(RejectMetric, rejectHelp, "file", file, "reason", string(re.Reason)).Inc()
	}
	o.Quarantine.Record(file, re)
}

// RejectCounters is the rejection counter family of one registry with
// every (file, reason) series resolved — for a reader that totals them
// often (the daemon's stats endpoint) and should not go through the
// registry's get-or-create each time.
type RejectCounters []rejectCounter

type rejectCounter struct {
	key string // "file/reason"
	c   *metrics.Counter
}

// ResolveRejectCounters get-or-creates every series of the family, so it
// is visible on /metrics zero-valued from boot, not from the first
// corrupt row.
func ResolveRejectCounters(reg *metrics.Registry) RejectCounters {
	rc := make(RejectCounters, 0, len(rejectFiles)*len(Reasons))
	for _, file := range rejectFiles {
		for _, reason := range Reasons {
			rc = append(rc, rejectCounter{
				key: file + "/" + string(reason),
				c:   reg.Counter(RejectMetric, rejectHelp, "file", file, "reason", string(reason)),
			})
		}
	}
	return rc
}

// Totals reads the counters: the grand total and the per-"file/reason"
// breakdown of the nonzero ones.
func (rc RejectCounters) Totals() (total uint64, byReason map[string]uint64) {
	byReason = make(map[string]uint64, len(rc))
	for _, r := range rc {
		v := r.c.Value()
		total += v
		if v > 0 {
			byReason[r.key] = v
		}
	}
	return total, byReason
}

// RejectTotals reads back the rejection counters from a registry: the
// grand total and the per-"file/reason" breakdown (zero-valued series
// are pre-registered as a side effect).
func RejectTotals(reg *metrics.Registry) (total uint64, byReason map[string]uint64) {
	return ResolveRejectCounters(reg).Totals()
}

// DefaultQuarantineMaxBytes is the daemon's default quarantine size cap:
// generous enough that months of sporadic corruption fit with room to
// spare, small enough that a sustained malformed-row storm cannot fill
// the log volume out from under the tailers it shares it with.
const DefaultQuarantineMaxBytes = 256 << 20

// QuarantineDroppedMetric counts rows dropped because the quarantine hit
// its byte cap; QuarantineBytesMetric gauges the bytes written so far.
const (
	QuarantineDroppedMetric = "zeek_quarantine_dropped_total"
	QuarantineBytesMetric   = "zeek_quarantine_bytes"
)

// quarantineHeader is written once per sink before the first row.
const quarantineHeader = "#quarantine\tv1\n#fields\tsource\tline\treason\traw\n"

// Quarantine is an append-only sink for rejected rows: one TSV line per
// row — source log, line number, reason, and the raw line with tabs,
// newlines, and backslashes hex-escaped so one rejected row always stays
// one quarantine line. A nil *Quarantine discards everything, and a sink
// write error never fails the pipeline (the first one is retained for
// inspection via Err) — quarantining exists so ingestion can continue,
// so it must not itself become a poison pill.
//
// SetMaxBytes caps the sink: once the cap would be exceeded the row is
// dropped and counted instead of written, because a malformed-row storm
// must not fill the disk during a soak — the per-reason rejection
// counters still tally every row, so nothing goes unnoticed, only the
// raw forensics are bounded.
type Quarantine struct {
	mu       sync.Mutex
	w        io.Writer
	c        io.Closer
	opened   bool
	n        uint64
	err      error
	maxBytes int64 // 0 = unlimited
	bytes    int64 // written so far (seeded with the file size on open)
	dropped  uint64
	droppedC *metrics.Counter
	bytesG   *metrics.Gauge
}

// NewQuarantine wraps an arbitrary sink.
func NewQuarantine(w io.Writer) *Quarantine { return &Quarantine{w: w} }

// OpenQuarantine opens (appending, creating if needed) a quarantine file.
// An existing file's size counts against any byte cap set later — the cap
// bounds the file, not this process's contribution to it.
func OpenQuarantine(path string) (*Quarantine, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	q := &Quarantine{w: f, c: f}
	if fi, err := f.Stat(); err == nil {
		q.bytes = fi.Size()
	}
	return q, nil
}

// SetMaxBytes caps the sink at n bytes (n <= 0 removes the cap). Rows
// that would push past the cap are dropped and counted via Dropped.
func (q *Quarantine) SetMaxBytes(n int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	q.maxBytes = n
}

// Instrument publishes the overflow counter and byte gauge into reg.
func (q *Quarantine) Instrument(reg *metrics.Registry) {
	if q == nil || reg == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.droppedC = reg.Counter(QuarantineDroppedMetric, "rejected rows dropped at the quarantine byte cap")
	q.bytesG = reg.Gauge(QuarantineBytesMetric, "bytes in the quarantine sink")
	q.droppedC.Add(q.dropped)
	q.bytesG.Set(float64(q.bytes))
}

// Record appends one rejected row.
func (q *Quarantine) Record(file string, re *RowError) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.n++
	if q.err != nil {
		return
	}
	line := fmt.Sprintf("%s\t%d\t%s\t%s\n",
		file, re.Line, re.Reason, escapeField(re.Raw))
	need := int64(len(line))
	if !q.opened {
		need += int64(len(quarantineHeader))
	}
	if q.maxBytes > 0 && q.bytes+need > q.maxBytes {
		q.dropped++
		if q.droppedC != nil {
			q.droppedC.Inc()
		}
		return
	}
	if !q.opened {
		if _, err := io.WriteString(q.w, quarantineHeader); err != nil {
			q.err = err
			return
		}
		q.opened = true
		q.bytes += int64(len(quarantineHeader))
	}
	if _, err := io.WriteString(q.w, line); err != nil {
		q.err = err
		return
	}
	q.bytes += int64(len(line))
	if q.bytesG != nil {
		q.bytesG.Set(float64(q.bytes))
	}
}

// Dropped is the number of rows lost to the byte cap.
func (q *Quarantine) Dropped() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Bytes is the sink size so far (including any pre-existing file bytes).
func (q *Quarantine) Bytes() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bytes
}

// Count is the number of rows recorded (including any lost to a sink
// error).
func (q *Quarantine) Count() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Err reports the first sink write error, if any.
func (q *Quarantine) Err() error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Close closes the underlying file when the quarantine owns one.
func (q *Quarantine) Close() error {
	if q == nil || q.c == nil {
		return nil
	}
	return q.c.Close()
}

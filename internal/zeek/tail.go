package zeek

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
)

// maxPollChunk caps how many bytes one poll consumes. A daemon restarted
// against a large backlog must not slurp the whole file into memory in a
// single read; instead each poll advances by at most one chunk (ending
// at the last complete line) and the caller keeps polling until it
// drains. 4 MiB comfortably exceeds any sane Zeek TSV line while keeping
// the transient allocation bounded.
const maxPollChunk = 4 << 20

// sigLen is how many bytes of the first data line identify a file when
// dev/inode identity is unavailable or ambiguous (first-line signature).
// The signature anchors at the first non-header line because Zeek log
// headers are identical across rotations of the same log, while the
// first data row (timestamp, UID) is effectively unique per file.
const sigLen = 64

// sigScan bounds how far into the file captureSig looks for the first
// data line (the header block is a few hundred bytes).
const sigScan = 4096

// tailMetrics is the tailer's optional instrumentation; the zero value
// (all nil) records nothing — metrics instruments are nil-tolerant.
type tailMetrics struct {
	pollDur   *metrics.Histogram // wall time per poll
	bytesRead *metrics.Counter   // bytes consumed (complete lines only)
	rows      *metrics.Counter   // data rows delivered
	rotations *metrics.Counter   // rotations detected
	lag       *metrics.Gauge     // file size − consumed offset
}

// tail incrementally reads one Zeek TSV log file. Each poll opens the
// file, seeks to the byte offset reached last time, and consumes newly
// appeared complete lines, at most maxPollChunk bytes per poll; a
// trailing partial line (a row the writer has not finished flushing) is
// left for the next poll. Rotation is detected by file identity — the
// FileInfo retained from the previous poll compared via os.SameFile,
// with a first-line signature fallback when no identity is retained
// (e.g. an offset restored from a checkpoint) — or by the file shrinking
// below the saved offset (copytruncate keeps the inode). On rotation the
// tailer restarts from byte 0, so a rotated file that regrows past the
// old offset before the next poll still has every row read. The offset
// is exposed so a daemon can persist it in a checkpoint and resume
// tailing exactly where ingestion stopped.
type tail struct {
	path     string
	wantPath string
	nFields  int
	offset   int64
	line     int64
	// chunk is the per-poll byte cap (maxPollChunk; tests shrink it).
	chunk int64
	// info is the identity of the file the offset refers to, nil before
	// the first successful poll.
	info os.FileInfo
	// sig is up to sigLen bytes starting at sigOff (the first data
	// line), the content identity backing up dev/inode comparison.
	sig    []byte
	sigOff int64
	// opts selects strict vs permissive malformed-row handling. The zero
	// value is permissive: a corrupt row is consumed (quarantined when
	// sinks are attached) instead of poisoning every subsequent poll.
	opts Options
	// skipping is set after a line longer than one chunk was discarded
	// in permissive mode; polls drop bytes until the next newline.
	skipping bool
	// cols is the reused column-split scratch; its entries alias the
	// poll's read buffer and are only valid inside one row callback.
	cols [][]byte
	// it deduplicates repeated field values across the tailer's whole
	// lifetime — the long-running daemon is exactly the caller whose
	// value population (IPs, versions, fingerprints, issuers) stabilizes
	// after the first polls.
	it *internTable

	m tailMetrics
}

// instrument attaches metric series (labeled by the Zeek log name) to
// this tailer. Without it the tailer records nothing.
func (t *tail) instrument(r *metrics.Registry) {
	l := []string{"file", t.wantPath}
	t.m = tailMetrics{
		pollDur:   r.Histogram("tail_poll_seconds", "wall time of one tail poll", nil, l...),
		bytesRead: r.Counter("tail_bytes_read_total", "log bytes consumed as complete lines", l...),
		rows:      r.Counter("tail_rows_total", "data rows delivered to the parser", l...),
		rotations: r.Counter("tail_rotations_total", "log rotations detected", l...),
		lag:       r.Gauge("tail_lag_bytes", "file size minus consumed offset after a poll", l...),
	}
}

// rotated reports whether the file behind f is a different file than the
// one the saved offset refers to. Identity is dev/inode (os.SameFile on
// the FileInfo retained from the previous poll); the first-data-line
// signature backs it up — it is the only check available when no
// FileInfo is retained (an offset resumed without identity), and it also
// catches an inode number recycled into a fresh file between polls. A
// file that shrank below the offset rotated in place (copytruncate
// keeps the inode).
func (t *tail) rotated(f *os.File, fi os.FileInfo) bool {
	if t.info != nil && !os.SameFile(t.info, fi) {
		return true
	}
	if t.offset > 0 && len(t.sig) > 0 && fi.Size() >= t.sigOff+int64(len(t.sig)) {
		cur := make([]byte, len(t.sig))
		if n, err := f.ReadAt(cur, t.sigOff); err == nil || err == io.EOF {
			if !bytes.Equal(cur[:n], t.sig) {
				return true
			}
		}
	}
	return fi.Size() < t.offset
}

// captureSig (re)derives the signature while it is still shorter than
// sigLen: it scans the file's first sigScan bytes past the '#' header
// lines and signs up to sigLen bytes starting at the first data line. A
// short signature (the first data line was still being written when
// first seen) is extended on later polls; the signed bytes never change
// because the log is append-only.
func (t *tail) captureSig(f *os.File, size int64) {
	if int64(len(t.sig)) >= sigLen || size == 0 {
		return
	}
	if len(t.sig) > 0 && size <= t.sigOff+int64(len(t.sig)) {
		return // nothing new to extend with
	}
	n := size
	if n > sigScan {
		n = sigScan
	}
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return
	}
	buf = buf[:m]
	var off int64
	for len(buf) > 0 {
		if buf[0] != '#' && buf[0] != '\n' {
			avail := int64(len(buf))
			if avail > sigLen {
				avail = sigLen
			}
			t.sigOff = off
			t.sig = append([]byte(nil), buf[:avail]...)
			return
		}
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return // header line incomplete; retry next poll
		}
		off += int64(nl) + 1
		buf = buf[nl+1:]
	}
}

// poll consumes newly appended complete rows, invoking row per data line.
// The offset never advances past a partial trailing line, and by at most
// one chunk per call — callers catching up on a backlog poll repeatedly
// until no rows remain.
//
// Malformed rows follow t.opts. Permissive (the default): the offset
// advances past the bad line exactly once, the row is quarantined, and
// the rest of the chunk still parses — this is the poison-pill fix; a
// single corrupt row used to fail Poll without progress, so a daemon
// re-parsed it every tick forever. Strict: Poll rewinds to the start of
// the offending line and returns the error, so nothing is silently
// dropped and ingestion visibly halts there until an operator acts.
func (t *tail) poll(row func([][]byte) error) error {
	defer t.m.pollDur.Since(time.Now())
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return nil // not written yet; keep polling
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if t.rotated(f, fi) {
		t.offset = 0
		t.line = 0
		t.sig = nil
		t.sigOff = 0
		t.skipping = false
		t.m.rotations.Inc()
	}
	t.info = fi
	t.captureSig(f, fi.Size())
	if fi.Size() == t.offset {
		t.m.lag.Set(0)
		return nil
	}
	chunk := t.chunk
	if chunk <= 0 {
		chunk = maxPollChunk
	}
	want := fi.Size() - t.offset
	if want > chunk {
		want = chunk
	}
	buf := make([]byte, want)
	n, err := f.ReadAt(buf, t.offset)
	if err != nil && err != io.EOF {
		return err
	}
	buf = buf[:n]
	if t.skipping {
		// Mid-discard of an oversized line: drop bytes up to and
		// including the next newline, then resume normal parsing.
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			t.offset += int64(len(buf))
			t.m.lag.Set(float64(fi.Size() - t.offset))
			return nil
		}
		t.offset += int64(nl) + 1
		t.line++
		t.skipping = false
		buf = buf[nl+1:]
	}
	last := bytes.LastIndexByte(buf, '\n')
	if last < 0 {
		if int64(len(buf)) >= chunk {
			if t.opts.Strict {
				t.m.lag.Set(float64(fi.Size() - t.offset))
				return fmt.Errorf("zeek: tail %s: line at offset %d exceeds %d bytes", t.path, t.offset, chunk)
			}
			// The line cannot fit in one chunk and its end is not in
			// sight; quarantine a prefix for forensics and discard
			// until the newline shows up.
			re := rowErrf(RejectOversizedLine, "line exceeds %d bytes", chunk)
			re.Line = t.line + 1
			re.Raw = string(buf[:min(len(buf), 256)])
			t.opts.reject(t.wantPath, re)
			t.offset += int64(len(buf))
			t.skipping = true
		}
		t.m.lag.Set(float64(fi.Size() - t.offset))
		return nil // only a partial line so far
	}
	data := buf[:last+1]
	t.m.bytesRead.Add(uint64(len(data)))
	var rows uint64
	defer func() {
		t.m.rows.Add(rows)
		t.m.lag.Set(float64(fi.Size() - t.offset))
	}()
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		lineStart := t.offset
		line := data[:nl]
		data = data[nl+1:]
		t.offset += int64(nl) + 1
		t.line++
		// The batch reader's bufio.Scanner strips a trailing \r; do the
		// same so a CRLF log parses identically tailed or batched (the
		// \r otherwise rides into the last column and rejects the row).
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if bytes.HasPrefix(line, pathHeader) {
				if got := line[len(pathHeader):]; string(got) != t.wantPath {
					return fmt.Errorf("zeek: tail %s: log path %q, want %q", t.path, got, t.wantPath)
				}
			}
			continue
		}
		t.cols = splitCols(t.cols[:0], line)
		if len(t.cols) != t.nFields && len(t.cols) != altFieldCount(t.wantPath, t.nFields) {
			re := rowErrf(RejectFieldCount, "%d fields, want %d", len(t.cols), t.nFields)
			if err := t.badRow(re, lineStart, line); err != nil {
				return err
			}
			continue
		}
		if err := row(t.cols); err != nil {
			var re *RowError
			if errors.As(err, &re) {
				if err := t.badRow(re, lineStart, line); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("zeek: tail %s: line %d: %w", t.path, t.line, err)
		}
		rows++
	}
	return nil
}

// badRow resolves one malformed line per the tailer's options: strict
// rewinds the offset so the line is not consumed and returns the error;
// permissive quarantines it and returns nil so the poll loop continues.
func (t *tail) badRow(re *RowError, lineStart int64, line []byte) error {
	re.Line, re.Raw = t.line, string(line)
	if t.opts.Strict {
		t.offset = lineStart
		t.line--
		return fmt.Errorf("zeek: tail %s: %w", t.path, re)
	}
	t.opts.reject(t.wantPath, re)
	return nil
}

// SSLTail incrementally reads an ssl.log as it is written.
type SSLTail struct{ t tail }

// NewSSLTail tails the ssl.log at path from the beginning.
func NewSSLTail(path string) *SSLTail {
	return &SSLTail{t: tail{path: path, wantPath: "ssl", nFields: len(sslFields), it: newInternTable()}}
}

// Instrument publishes the tailer's poll duration, bytes/rows read, lag,
// and rotation count to the registry, labeled file="ssl".
func (s *SSLTail) Instrument(r *metrics.Registry) { s.t.instrument(r) }

// SetOptions selects strict vs permissive malformed-row handling and
// attaches the quarantine/metrics sinks (see Options). The default is
// permissive with no sinks.
func (s *SSLTail) SetOptions(o Options) { s.t.opts = o }

// Poll returns the connection rows appended since the previous poll (nil
// when nothing new). Rows parsed before an error are still returned. One
// call consumes at most one chunk (4 MiB) of the backlog; keep polling
// until no rows return to drain a large catch-up.
func (s *SSLTail) Poll() ([]SSLRecord, error) {
	var out []SSLRecord
	err := s.t.poll(func(cols [][]byte) error {
		rec, err := parseSSLCols(cols, s.t.it)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

// Offset is the byte position reached so far, for checkpointing.
func (s *SSLTail) Offset() int64 { return s.t.offset }

// SetOffset resumes tailing from a checkpointed byte position.
func (s *SSLTail) SetOffset(off int64) { s.t.offset = off }

// X509Tail incrementally reads an x509.log as it is written.
type X509Tail struct{ t tail }

// NewX509Tail tails the x509.log at path from the beginning.
func NewX509Tail(path string) *X509Tail {
	return &X509Tail{t: tail{path: path, wantPath: "x509", nFields: len(x509Fields), it: newInternTable()}}
}

// Instrument publishes the tailer's poll duration, bytes/rows read, lag,
// and rotation count to the registry, labeled file="x509".
func (x *X509Tail) Instrument(r *metrics.Registry) { x.t.instrument(r) }

// SetOptions selects strict vs permissive malformed-row handling and
// attaches the quarantine/metrics sinks (see Options).
func (x *X509Tail) SetOptions(o Options) { x.t.opts = o }

// Poll returns the certificate rows appended since the previous poll,
// consuming at most one chunk per call (see SSLTail.Poll).
func (x *X509Tail) Poll() ([]X509Record, error) {
	var out []X509Record
	err := x.t.poll(func(cols [][]byte) error {
		rec, err := parseX509Cols(cols, x.t.it)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

// Offset is the byte position reached so far, for checkpointing.
func (x *X509Tail) Offset() int64 { return x.t.offset }

// SetOffset resumes tailing from a checkpointed byte position.
func (x *X509Tail) SetOffset(off int64) { x.t.offset = off }

package zeek

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
)

// maxPollChunk caps how many bytes one poll consumes. A daemon restarted
// against a large backlog must not slurp the whole file into memory in a
// single read; instead each poll advances by at most one chunk (ending
// at the last complete line) and the caller keeps polling until it
// drains. 4 MiB comfortably exceeds any sane Zeek TSV line while keeping
// the read buffer, which a tailer reuses across polls, bounded.
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

// tail incrementally reads one Zeek TSV log file. It holds the file open
// between polls: a poll stats the path for identity and size, then reads
// the newly appeared complete lines from the held descriptor at the byte
// offset reached last time — at most maxPollChunk bytes, into a buffer it
// reuses — and leaves a trailing partial line (a row the writer has not
// finished flushing) for the next poll.
//
// Rotation is detected three ways. The path naming another file than the
// one held, or none, is a rename or unlink: the held file's remaining
// complete lines are read first, then the tailer switches to the new file
// at byte 0, so rows appended just before the rename are not lost. A
// first-line signature that no longer matches (the one check left when no
// identity is held, e.g. an offset restored from a checkpoint) or the
// file shrinking below the saved offset (copytruncate keeps the inode)
// restarts the same path from byte 0; copytruncate loses whatever was
// appended past the offset before the truncation, since those bytes are
// gone from the file. The offset is exposed so a daemon can persist it in
// a checkpoint and resume tailing exactly where ingestion stopped.
type tail struct {
	path     string
	wantPath string
	nFields  int
	offset   int64
	line     int64
	// chunk is the per-poll byte cap (maxPollChunk; tests shrink it).
	chunk int64
	// f is the file the offset refers to and info its identity, both nil
	// before the first successful poll and after close.
	f    *os.File
	info os.FileInfo
	// more is set when the last poll stopped at the chunk cap with bytes
	// of the file left behind it.
	more bool
	// buf is the read buffer, reused by every poll: nothing parsed from
	// it outlives a poll uncopied (records copy out through the intern
	// table).
	buf []byte
	// sig is up to sigLen bytes starting at sigOff (the first data
	// line), the content identity backing up dev/inode comparison;
	// sigCur is the scratch a poll reads the same bytes back into.
	sig    []byte
	sigOff int64
	sigCur [sigLen]byte
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
	// after the first polls — and holds the arenas the poll's records are
	// cut from. NewLogTails gives both tails of a directory one table.
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

// rewritten reports whether the held file, which the path still names,
// no longer holds what the saved offset refers to. The first-data-line
// signature is the only check available when the file was opened without
// a retained identity (an offset resumed from a checkpoint), and it also
// catches a file rewritten in place. A file that shrank below the offset
// rotated in place (copytruncate keeps the inode).
func (t *tail) rewritten(size int64) bool {
	if t.offset > 0 && len(t.sig) > 0 && size >= t.sigOff+int64(len(t.sig)) {
		cur := t.sigCur[:len(t.sig)]
		if n, err := t.f.ReadAt(cur, t.sigOff); err == nil || err == io.EOF {
			if !bytes.Equal(cur[:n], t.sig) {
				return true
			}
		}
	}
	return size < t.offset
}

// restart points the tailer at byte 0 of a rotated log.
func (t *tail) restart() {
	t.offset, t.line = 0, 0
	t.sig, t.sigOff = t.sig[:0], 0
	t.skipping = false
	t.m.rotations.Inc()
}

// readBuf returns the reused read buffer resized to n bytes.
func (t *tail) readBuf(n int64) []byte {
	if int64(cap(t.buf)) < n {
		t.buf = make([]byte, n)
	}
	return t.buf[:n]
}

// captureSig (re)derives the signature while it is still shorter than
// sigLen: it scans the file's first sigScan bytes past the '#' header
// lines and signs up to sigLen bytes starting at the first data line. A
// short signature (the first data line was still being written when
// first seen) is extended on later polls; the signed bytes never change
// because the log is append-only.
func (t *tail) captureSig(size int64) {
	if len(t.sig) >= sigLen || size == 0 {
		return
	}
	if len(t.sig) > 0 && size <= t.sigOff+int64(len(t.sig)) {
		return // nothing new to extend with
	}
	buf := t.readBuf(min(size, sigScan))
	m, err := t.f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return
	}
	buf = buf[:m]
	var off int64
	for len(buf) > 0 {
		if buf[0] != '#' && buf[0] != '\n' {
			t.sigOff = off
			t.sig = append(t.sig[:0], buf[:min(len(buf), sigLen)]...)
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
// while t.more reports bytes left behind the cap.
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
	t.more = false
	fi, err := os.Stat(t.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if t.f != nil && (fi == nil || !os.SameFile(t.info, fi)) {
		// The path names another file, or none: the log was renamed or
		// unlinked, and the held descriptor still reads the old one.
		if switched, err := t.drain(row); !switched {
			return err
		}
	}
	if fi == nil {
		return nil // not written yet; keep polling
	}
	if t.f == nil {
		f, err := os.Open(t.path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if fi, err = f.Stat(); err != nil {
			f.Close()
			return err
		}
		t.f, t.info = f, fi
	}
	if t.rewritten(fi.Size()) {
		t.restart()
	}
	t.captureSig(fi.Size())
	return t.read(fi.Size(), row, false)
}

// drain reads the held file, which the path no longer names, to its end,
// then closes it and restarts at byte 0 of whatever the path names now.
// It reports whether it switched: a drain stopped at the chunk cap (more
// is set) or by an error resumes on the next poll.
func (t *tail) drain(row func([][]byte) error) (bool, error) {
	fi, err := t.f.Stat()
	if err != nil {
		return false, err
	}
	if err := t.read(fi.Size(), row, true); err != nil || t.more {
		return false, err
	}
	t.close()
	t.restart()
	return true, nil
}

// close releases the held file; the next poll reopens the path.
func (t *tail) close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f, t.info = nil, nil
	return err
}

// read consumes the lines between the offset and size of the held file,
// at most one chunk of them, setting t.more when the cap left bytes
// unread. Only complete lines are consumed, except at eof — the file was
// rotated away, so nothing will complete its last line — where a
// trailing line without its newline is consumed as the batch reader
// consumes one at the end of a file: it parses as a row or is rejected.
func (t *tail) read(size int64, row func([][]byte) error, eof bool) error {
	if size <= t.offset {
		t.m.lag.Set(0)
		return nil
	}
	defer func() { t.m.lag.Set(float64(max(size-t.offset, 0))) }()
	chunk := t.chunk
	if chunk <= 0 {
		chunk = maxPollChunk
	}
	want := size - t.offset
	if want > chunk {
		want, t.more = chunk, true
	}
	buf := t.readBuf(want)
	n, err := t.f.ReadAt(buf, t.offset)
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
			return nil
		}
		t.offset += int64(nl) + 1
		t.line++
		t.skipping = false
		buf = buf[nl+1:]
	}
	end := bytes.LastIndexByte(buf, '\n') + 1
	if eof && !t.more {
		end = len(buf)
	}
	if end == 0 {
		if int64(len(buf)) >= chunk {
			if t.opts.Strict {
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
		return nil // only a partial line so far
	}
	data := buf[:end]
	t.m.bytesRead.Add(uint64(len(data)))
	var rows uint64
	defer func() { t.m.rows.Add(rows) }()
	for len(data) > 0 {
		lineStart := t.offset
		line, rest, _ := bytes.Cut(data, newline)
		t.offset += int64(len(data) - len(rest))
		data = rest
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

// newline separates the lines a poll reads.
var newline = []byte{'\n'}

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
type SSLTail struct {
	t tail
	// out is the slice Poll appends into, reused by the next Poll.
	out []SSLRecord
}

// NewSSLTail tails the ssl.log at path from the beginning.
func NewSSLTail(path string) *SSLTail { return newSSLTail(path, newInternTable()) }

func newSSLTail(path string, it *internTable) *SSLTail {
	return &SSLTail{t: tail{path: path, wantPath: "ssl", nFields: len(sslFields), it: it}}
}

// NewLogTails tails the ssl.log and x509.log of one Zeek log directory
// from the beginning, with one intern table between them: a fingerprint
// is hashed and copied once, when its x509.log row is parsed, and every
// ssl.log chain naming it later shares that string. The table is not
// locked, so the two tails must be polled from one goroutine; polling
// x509.log first lets each round's connections find the certificates
// logged with them.
func NewLogTails(dir string) (*SSLTail, *X509Tail) {
	it := newPairTable()
	return newSSLTail(filepath.Join(dir, "ssl.log"), it), newX509Tail(filepath.Join(dir, "x509.log"), it)
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
// while More reports true to drain a large catch-up.
//
// The returned slice is reused: it is valid until the next Poll, so a
// caller keeping rows past that copies the records out of it. The records
// themselves — their strings and chains — stay valid for good.
func (s *SSLTail) Poll() ([]SSLRecord, error) {
	clear(s.out)
	s.out = s.out[:0]
	err := s.t.poll(func(cols [][]byte) error {
		rec, err := parseSSLCols(cols, s.t.it)
		if err != nil {
			return err
		}
		s.out = append(s.out, rec)
		return nil
	})
	return nilIfEmpty(s.out), err
}

// More reports whether the last Poll stopped at its chunk cap, leaving
// bytes of the log it has not read yet.
func (s *SSLTail) More() bool { return s.t.more }

// Close releases the log file the tailer holds open between polls.
func (s *SSLTail) Close() error { return s.t.close() }

// Offset is the byte position reached so far, for checkpointing.
func (s *SSLTail) Offset() int64 { return s.t.offset }

// SetOffset resumes tailing from a checkpointed byte position.
func (s *SSLTail) SetOffset(off int64) { s.t.offset = off }

// X509Tail incrementally reads an x509.log as it is written.
type X509Tail struct {
	t   tail
	out []X509Record
}

// NewX509Tail tails the x509.log at path from the beginning.
func NewX509Tail(path string) *X509Tail { return newX509Tail(path, newInternTable()) }

func newX509Tail(path string, it *internTable) *X509Tail {
	return &X509Tail{t: tail{path: path, wantPath: "x509", nFields: len(x509Fields), it: it}}
}

// Instrument publishes the tailer's poll duration, bytes/rows read, lag,
// and rotation count to the registry, labeled file="x509".
func (x *X509Tail) Instrument(r *metrics.Registry) { x.t.instrument(r) }

// SetOptions selects strict vs permissive malformed-row handling and
// attaches the quarantine/metrics sinks (see Options).
func (x *X509Tail) SetOptions(o Options) { x.t.opts = o }

// Poll returns the certificate rows appended since the previous poll,
// consuming at most one chunk per call (see SSLTail.Poll). As there, the
// returned slice is valid until the next Poll and the records, with the
// *CertInfo each points to, for good.
func (x *X509Tail) Poll() ([]X509Record, error) {
	clear(x.out)
	x.out = x.out[:0]
	err := x.t.poll(func(cols [][]byte) error {
		rec, err := parseX509Cols(cols, x.t.it)
		if err != nil {
			return err
		}
		x.out = append(x.out, rec)
		return nil
	})
	return nilIfEmpty(x.out), err
}

// More reports whether the last Poll stopped at its chunk cap (see
// SSLTail.More).
func (x *X509Tail) More() bool { return x.t.more }

// Close releases the log file the tailer holds open between polls.
func (x *X509Tail) Close() error { return x.t.close() }

// Offset is the byte position reached so far, for checkpointing.
func (x *X509Tail) Offset() int64 { return x.t.offset }

// SetOffset resumes tailing from a checkpointed byte position.
func (x *X509Tail) SetOffset(off int64) { x.t.offset = off }

// nilIfEmpty keeps Poll's "nil when nothing new" with a reused slice.
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

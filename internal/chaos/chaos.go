// Package chaos is the fault-injection layer of the mtlsd load harness
// (cmd/mtlsload): it streams Zeek-style rows into a live log directory
// the way a capture pipeline would, and perturbs the daemon the way
// production does — log rotation, copytruncate, malformed-row storms,
// SIGKILL of the process, and slow-disk (throttled write) episodes.
//
// Everything here is deliberately mechanical; policy (when to inject
// what, and what must still hold afterwards) lives in the harness. The
// one invariant the primitives do own: every append is a whole number
// of rows followed by a flush, so the tailer never observes a torn
// line.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/zeek"
)

// SSLLog and X509Log name the two live logs an Appender manages.
const (
	SSLLog  = "ssl.log"
	X509Log = "x509.log"
)

// Appender streams rows into dir's ssl.log and x509.log: the first
// write to each (and the first after a rotation or truncation) carries
// the Zeek TSV header, later ones append bare rows. Not safe for
// concurrent use.
type Appender struct {
	// Dir is the live log directory (created on first use).
	Dir string
	// Throttle caps append bandwidth in bytes/s when > 0, simulating a
	// slow disk: writes land in small chunks with sleeps in between.
	Throttle int64
	// Extended selects ssl.log's 14-column schema with the ja3/ja4
	// fingerprint columns; set it before the first append when the
	// dataset carries ClientHello fingerprints.
	Extended bool

	// sleep is a test seam for the throttle delay.
	sleep func(time.Duration)

	headered map[string]bool
	rotSeq   int
	bytes    int64
}

// NewAppender returns an Appender over dir.
func NewAppender(dir string) *Appender {
	return &Appender{Dir: dir, sleep: time.Sleep, headered: make(map[string]bool)}
}

// Init creates both logs with headers and no rows, so a daemon started
// before any traffic still finds well-formed files to tail.
func (a *Appender) Init() error {
	if err := a.AppendConns(nil); err != nil {
		return err
	}
	return a.AppendCerts(nil)
}

// BytesWritten returns the total bytes appended so far, malformed
// storms included.
func (a *Appender) BytesWritten() int64 { return a.bytes }

// AppendConns appends rows to ssl.log and flushes.
func (a *Appender) AppendConns(recs []zeek.SSLRecord) error {
	var buf bytes.Buffer
	w := zeek.NewSSLWriter(&buf)
	w.Extended = a.Extended
	if a.headered[SSLLog] {
		w.SkipHeader()
	} else if err := w.WriteHeader(); err != nil {
		return err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := a.append(SSLLog, buf.Bytes()); err != nil {
		return err
	}
	a.headered[SSLLog] = true
	return nil
}

// AppendCerts appends rows to x509.log and flushes.
func (a *Appender) AppendCerts(recs []zeek.X509Record) error {
	var buf bytes.Buffer
	w := zeek.NewX509Writer(&buf)
	if a.headered[X509Log] {
		w.SkipHeader()
	} else if err := w.WriteHeader(); err != nil {
		return err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return a.append(X509Log, buf.Bytes())
}

// MalformedStorm appends n syntactically broken rows to the named log —
// the field count is wrong, so a permissive reader quarantines every
// one. Rows carry marker so a harness can find them in the quarantine.
func (a *Appender) MalformedStorm(file, marker string, n int) error {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%s\tstorm\trow-%d\n", marker, i)
	}
	return a.append(file, buf.Bytes())
}

// append opens the log (creating it if needed), writes data honoring
// the throttle, and closes. Reopening per batch keeps the Appender
// oblivious to rotations happening between appends.
func (a *Appender) append(file string, data []byte) error {
	if err := os.MkdirAll(a.Dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(a.Dir, file)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := a.write(f, data); err != nil {
		return err
	}
	if len(data) > 0 {
		a.headered[file] = true
	}
	return f.Sync()
}

// throttleChunk is the write granularity under Throttle: small enough
// that a 1 MiB/s cap yields visibly paced appends, large enough to stay
// a handful of syscalls per batch.
const throttleChunk = 8 << 10

// write lands data on f, in throttled chunks when Throttle is set.
func (a *Appender) write(f io.Writer, data []byte) error {
	if a.Throttle <= 0 {
		n, err := f.Write(data)
		a.bytes += int64(n)
		return err
	}
	for len(data) > 0 {
		chunk := len(data)
		if chunk > throttleChunk {
			chunk = throttleChunk
		}
		n, err := f.Write(data[:chunk])
		a.bytes += int64(n)
		if err != nil {
			return err
		}
		data = data[chunk:]
		a.sleep(time.Duration(float64(chunk) / float64(a.Throttle) * float64(time.Second)))
	}
	return nil
}

// Rotate renames the named log aside (file.1, file.2, ... per call) the
// way logrotate's default mode does; the next append recreates the live
// file with a fresh header. No quiescing is needed: mtlsd's tailer holds
// the log open, so it reads the rows appended before the rename from the
// renamed file, then the new file from byte 0.
func (a *Appender) Rotate(file string) error {
	a.rotSeq++
	path := filepath.Join(a.Dir, file)
	if err := os.Rename(path, fmt.Sprintf("%s.%d", path, a.rotSeq)); err != nil {
		return err
	}
	delete(a.headered, file)
	return nil
}

// CopyTruncate rotates the named log the way logrotate's copytruncate
// mode does: copy the content aside, then truncate the live file in
// place (same inode). The tailer detects the shrink (size < offset) and
// restarts from byte 0. The caller is responsible for quiescing: rows
// not yet consumed exist only in the copy, which is never tailed, so
// truncate only once ingestion lag is zero if losslessness matters.
func (a *Appender) CopyTruncate(file string) error {
	a.rotSeq++
	path := filepath.Join(a.Dir, file)
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(fmt.Sprintf("%s.%d", path, a.rotSeq))
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	if err := os.Truncate(path, 0); err != nil {
		return err
	}
	delete(a.headered, file)
	return nil
}

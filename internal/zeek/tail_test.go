package zeek

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

func tailRec(uid string, ts time.Time) SSLRecord {
	return SSLRecord{
		TS: ts, UID: ids.UID(uid), OrigIP: "10.0.0.1", OrigPort: 1234,
		RespIP: "192.0.2.1", RespPort: 443, Version: "TLSv12", SNI: "example.com",
		Established: true, ServerChain: []ids.Fingerprint{"aa"}, Weight: 1,
	}
}

// writeRows appends ssl.log rows (with header on first write) to path.
func writeRows(t *testing.T, path string, recs ...SSLRecord) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	w := NewSSLWriter(f)
	w.opened = fi.Size() > 0 // only the first append writes the header
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTailIncremental drives the tailer through appends, a partial line,
// and its completion.
func TestTailIncremental(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	tl := NewSSLTail(path)

	// File absent: no rows, no error.
	if recs, err := tl.Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("absent file: recs=%d err=%v", len(recs), err)
	}

	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Minute)))
	recs, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].UID != "C1" || recs[1].UID != "C2" {
		t.Fatalf("first poll: %+v", recs)
	}

	// Nothing new.
	if recs, err := tl.Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("idle poll: recs=%d err=%v", len(recs), err)
	}

	// Append a complete row plus a partial line; only the complete row
	// must be consumed.
	writeRows(t, path, tailRec("C3", ts.Add(2*time.Minute)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1654050000.000000\tC4\t10.0.0.1\t1234"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].UID != "C3" {
		t.Fatalf("partial-line poll: %+v", recs)
	}

	// Complete the partial line; the row must come through intact.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\t192.0.2.1\t443\tTLSv13\texample.com\tT\taa\t(empty)\t1\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].UID != "C4" || recs[0].Version != "TLSv13" {
		t.Fatalf("completed-line poll: %+v", recs)
	}
}

// TestTailOffsetResume checks that a fresh tailer seeked to a saved
// offset continues without re-reading or skipping rows.
func TestTailOffsetResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Second)))

	tl := NewSSLTail(path)
	if recs, err := tl.Poll(); err != nil || len(recs) != 2 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}
	saved := tl.Offset()

	writeRows(t, path, tailRec("C3", ts.Add(2*time.Second)))

	resumed := NewSSLTail(path)
	resumed.SetOffset(saved)
	recs, err := resumed.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].UID != "C3" {
		t.Fatalf("resume: %+v", recs)
	}
}

// TestTailRotation: a file that shrinks is re-read from the start.
func TestTailRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Second)))

	tl := NewSSLTail(path)
	if recs, err := tl.Poll(); err != nil || len(recs) != 2 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writeRows(t, path, tailRec("R1", ts.Add(time.Hour)))
	recs, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].UID != "R1" {
		t.Fatalf("rotation: %+v", recs)
	}
}

// TestTailRotationRegrow is the regression for the silent-loss bug: a
// rotated file that regrows PAST the old offset before the next poll
// must still be read from the start. The pre-fix tailer only recognized
// rotation when the new file was smaller than the saved offset, so it
// resumed mid-file and skipped every row before the old offset.
func TestTailRotationRegrow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Second)))

	tl := NewSSLTail(path)
	reg := metrics.New()
	tl.Instrument(reg)
	if recs, err := tl.Poll(); err != nil || len(recs) != 2 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}
	oldOffset := tl.Offset()

	// Rotate (remove + recreate) and immediately regrow beyond the old
	// offset: more rows than before, so the new size exceeds oldOffset.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writeRows(t, path,
		tailRec("R1", ts.Add(time.Hour)),
		tailRec("R2", ts.Add(time.Hour+time.Second)),
		tailRec("R3", ts.Add(time.Hour+2*time.Second)),
		tailRec("R4", ts.Add(time.Hour+3*time.Second)))
	if fi, err := os.Stat(path); err != nil || fi.Size() <= oldOffset {
		t.Fatalf("setup: new file must exceed old offset %d (size=%v err=%v)", oldOffset, fi.Size(), err)
	}

	recs, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].UID != "R1" || recs[3].UID != "R4" {
		t.Fatalf("rotation+regrow lost rows: %+v", recs)
	}
	if got := reg.Counter("tail_rotations_total", "", "file", "ssl").Value(); got != 1 {
		t.Errorf("rotations metric = %d, want 1", got)
	}
}

// uids lists the records' UIDs, in order.
func uids(recs []SSLRecord) []string {
	out := make([]string, len(recs))
	for i := range recs {
		out[i] = string(recs[i].UID)
	}
	return out
}

// TestTailRotationDrainsRenamed: rows appended to a log after the last
// poll and before it was renamed aside are read from the renamed file,
// ahead of the new file's rows. The tailer used to reopen the path and
// restart at byte 0 of the new file, losing them.
func TestTailRotationDrainsRenamed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Second)))

	tl := NewSSLTail(path)
	defer tl.Close()
	reg := metrics.New()
	tl.Instrument(reg)
	if recs, err := tl.Poll(); err != nil || len(recs) != 2 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}

	writeRows(t, path, tailRec("C3", ts.Add(2*time.Second)), tailRec("C4", ts.Add(3*time.Second)),
		tailRec("C5", ts.Add(4*time.Second)))
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	writeRows(t, path, tailRec("R1", ts.Add(time.Hour)))

	var got []SSLRecord
	for i := 0; i < 4; i++ {
		recs, err := tl.Poll()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	if want := []string{"C3", "C4", "C5", "R1"}; !slices.Equal(uids(got), want) {
		t.Fatalf("rows across the rename = %v, want %v", uids(got), want)
	}
	if n := reg.Counter("tail_rotations_total", "", "file", "ssl").Value(); n != 1 {
		t.Errorf("rotations metric = %d, want 1", n)
	}
}

// TestTailRotationPartialLine: a renamed file's last line without its
// newline is consumed as the batch reader consumes one at the end of a
// file — here it is cut short, so it is quarantined — rather than
// dropped, and the new file follows. Strict mode stops on it instead and
// stays on the old file.
func TestTailRotationPartialLine(t *testing.T) {
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ssl.log")
			ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
			writeRows(t, path, tailRec("C1", ts))
			q := NewQuarantine(io.Discard)
			tl := NewSSLTail(path)
			defer tl.Close()
			tl.SetOptions(Options{Strict: strict, Quarantine: q})
			if recs, err := tl.Poll(); err != nil || len(recs) != 1 {
				t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
			}
			writeRows(t, path, tailRec("C2", ts.Add(time.Second)))
			appendRaw(t, path, "1654050000.000000\tC3\t10.0.0.1\t1234")
			if err := os.Rename(path, path+".1"); err != nil {
				t.Fatal(err)
			}
			writeRows(t, path, tailRec("R1", ts.Add(time.Hour)))

			var got []SSLRecord
			var errs int
			for i := 0; i < 3; i++ {
				recs, err := tl.Poll()
				if err != nil {
					errs++
				}
				got = append(got, recs...)
			}
			if strict {
				if errs != 3 || !slices.Equal(uids(got), []string{"C2"}) {
					t.Fatalf("strict: %d failed polls, rows %v; want 3 and [C2] (halted on the cut line)", errs, uids(got))
				}
				return
			}
			if errs != 0 || !slices.Equal(uids(got), []string{"C2", "R1"}) || q.Count() != 1 {
				t.Fatalf("permissive: %d failed polls, rows %v, %d quarantined; want 0, [C2 R1], 1", errs, uids(got), q.Count())
			}
		})
	}
}

// TestTailHeldFileClosed: the tailer holds one descriptor between polls,
// releases the old file when it switches to a rotated log's new one, and
// releases it on Close.
func TestTailHeldFileClosed(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	open := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts))
	base := open()

	tl := NewSSLTail(path)
	for i := 0; i < 2; i++ {
		if _, err := tl.Poll(); err != nil {
			t.Fatal(err)
		}
		if n := open(); n != base+1 {
			t.Fatalf("poll %d: %d descriptors open, want %d (one held)", i, n, base+1)
		}
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	writeRows(t, path, tailRec("R1", ts.Add(time.Hour)))
	if recs, err := tl.Poll(); err != nil || len(recs) != 1 {
		t.Fatalf("after the rename: recs=%d err=%v", len(recs), err)
	}
	if n := open(); n != base+1 {
		t.Fatalf("after the switch: %d descriptors open, want %d (the renamed file released)", n, base+1)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	if n := open(); n != base {
		t.Fatalf("after Close: %d descriptors open, want %d", n, base)
	}
	if err := tl.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
}

// TestTailChunkedBacklog: a backlog far larger than the per-poll chunk
// is consumed across several polls, each bounded by the chunk size, with
// no row lost or duplicated.
func TestTailChunkedBacklog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	const rows = 200
	recs := make([]SSLRecord, rows)
	for i := range recs {
		recs[i] = tailRec(fmt.Sprintf("C%04d", i), ts.Add(time.Duration(i)*time.Second))
	}
	writeRows(t, path, recs...)

	tl := NewSSLTail(path)
	tl.t.chunk = 512 // force many polls; each row is ~100 bytes
	var got []SSLRecord
	polls := 0
	for more := true; more; polls++ {
		batch, err := tl.Poll()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
		more = tl.More()
	}
	if len(got) != rows {
		t.Fatalf("drained %d rows across %d polls, want %d (More must hold until the backlog is read)", len(got), polls, rows)
	}
	if batch, err := tl.Poll(); err != nil || len(batch) != 0 || tl.More() {
		t.Fatalf("a poll after More went false: %d rows, More %v, err %v", len(batch), tl.More(), err)
	}
	if polls < 3 {
		t.Fatalf("backlog consumed in %d polls; chunking is not limiting reads", polls)
	}
	for i := range got {
		if want := fmt.Sprintf("C%04d", i); string(got[i].UID) != want {
			t.Fatalf("row %d = %s, want %s", i, got[i].UID, want)
		}
	}
}

// TestTailSignatureFallback: when no FileInfo identity is retained (the
// state of a tailer resuming a checkpointed offset), a replaced file is
// still detected through the first-line signature.
func TestTailSignatureFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	// Raw tail over a headerless 2-field TSV so the signature is the
	// first data line, which differs across rotations (Zeek headers are
	// identical, so this exercises the mechanism directly).
	write := func(lines string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("alpha\t1\nbeta\t2\n")
	tl := &tail{path: path, wantPath: "t", nFields: 2}
	var got [][]string
	collect := func(cols [][]byte) error {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = string(c)
		}
		got = append(got, row)
		return nil
	}
	if err := tl.poll(collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("prefix rows = %d", len(got))
	}

	// Simulate a restart: the file released and its identity lost, the
	// offset and signature retained.
	tl.close()
	// Replace with a different file that is larger than the offset; only
	// the signature can reveal the swap.
	write("gamma\t3\ndelta\t4\nepsilon\t5\n")
	got = nil
	if err := tl.poll(collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0][0] != "gamma" {
		t.Fatalf("signature fallback missed the rotation: %v", got)
	}
}

// TestTailOversizedLineStrict: in strict mode a line exceeding the chunk
// cap reports an error instead of stalling silently forever.
func TestTailOversizedLineStrict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	if err := os.WriteFile(path, []byte(strings.Repeat("x", 2048)), 0o644); err != nil {
		t.Fatal(err)
	}
	tl := &tail{path: path, wantPath: "t", nFields: 2, chunk: 1024, opts: Options{Strict: true}}
	if err := tl.poll(func([][]byte) error { return nil }); err == nil {
		t.Fatal("oversized line must error, not spin")
	}
}

// TestTailOversizedLinePermissive: the default mode discards the
// oversized line (quarantining a prefix, counting one rejection) and
// resumes at the next newline — no input can wedge the tailer.
func TestTailOversizedLinePermissive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	content := strings.Repeat("x", 2048) + "\nok\t1\nok\t2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	q := NewQuarantine(io.Discard)
	tl := &tail{path: path, wantPath: "t", nFields: 2, chunk: 1024, opts: Options{Quarantine: q}}
	var got [][]string
	for i := 0; i < 10; i++ {
		if err := tl.poll(func(cols [][]byte) error {
			row := make([]string, len(cols))
			for i, c := range cols {
				row[i] = string(c)
			}
			got = append(got, row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0][0] != "ok" {
		t.Fatalf("rows after oversized line = %v, want the 2 trailing rows", got)
	}
	if q.Count() != 1 {
		t.Fatalf("quarantined = %d, want 1 (the oversized line)", q.Count())
	}
	if off := tl.offset; off != int64(len(content)) {
		t.Fatalf("offset = %d, want %d (fully drained)", off, len(content))
	}
}

// appendRaw appends raw bytes to path.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// TestTailPoisonPill is the regression for the tentpole bug: a malformed
// row appended mid-stream must be consumed exactly once (quarantined,
// counted under its reason), and every later row must still be
// delivered. The pre-fix tailer surfaced the row as a poll error on
// every cycle without a defined advance, so one corrupt line either
// spammed errors forever or silently cost the rows that shared its
// chunk.
func TestTailPoisonPill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts))

	reg := metrics.New()
	q := NewQuarantine(io.Discard)
	tl := NewSSLTail(path)
	tl.SetOptions(Options{Quarantine: q, Metrics: reg})

	recs, err := tl.Poll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}

	// The poison pill: a weight of zero, then two healthy rows behind it.
	appendRaw(t, path, "1654041600.000000\tBAD\t10.0.0.1\t1234\t192.0.2.1\t443\tTLSv12\tx.com\tT\taa\t-\t0\n")
	writeRows(t, path, tailRec("C2", ts.Add(time.Second)), tailRec("C3", ts.Add(2*time.Second)))

	var after []SSLRecord
	for i := 0; i < 5; i++ {
		recs, err := tl.Poll()
		if err != nil {
			t.Fatalf("poll after poison pill: %v", err)
		}
		after = append(after, recs...)
	}
	if len(after) != 2 || after[0].UID != "C2" || after[1].UID != "C3" {
		t.Fatalf("rows after poison pill = %+v, want C2 and C3", after)
	}
	if q.Count() != 1 {
		t.Fatalf("quarantined = %d, want exactly 1 (no re-reads)", q.Count())
	}
	if got := reg.Counter(RejectMetric, "", "file", "ssl", "reason", string(RejectWeight)).Value(); got != 1 {
		t.Fatalf("reject counter = %d, want 1", got)
	}
}

// TestTailStrictRewind: in strict mode a malformed row fails the poll
// WITHOUT advancing the offset — nothing is silently dropped, the same
// error resurfaces on every retry, and rows behind the bad one stay
// unread until an operator repairs the log.
func TestTailStrictRewind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts))

	tl := NewSSLTail(path)
	tl.SetOptions(Options{Strict: true})
	if recs, err := tl.Poll(); err != nil || len(recs) != 1 {
		t.Fatalf("prefix: recs=%d err=%v", len(recs), err)
	}
	saved := tl.Offset()

	appendRaw(t, path, "not-a-timestamp\tBAD\t10.0.0.1\t1234\t192.0.2.1\t443\tTLSv12\tx.com\tT\taa\t-\t1\n")
	writeRows(t, path, tailRec("C2", ts.Add(time.Second)))

	var firstErr error
	for i := 0; i < 3; i++ {
		recs, err := tl.Poll()
		if err == nil {
			t.Fatalf("strict poll %d must fail on the malformed row (got %d rows)", i, len(recs))
		}
		if len(recs) != 0 {
			t.Fatalf("strict poll %d delivered %d rows past the malformed one", i, len(recs))
		}
		if firstErr == nil {
			firstErr = err
		} else if err.Error() != firstErr.Error() {
			t.Fatalf("strict error changed between retries: %v vs %v", firstErr, err)
		}
		if tl.Offset() != saved {
			t.Fatalf("strict mode advanced offset to %d past the bad row (saved %d)", tl.Offset(), saved)
		}
	}
	var re *RowError
	if !errors.As(firstErr, &re) || re.Reason != RejectTimestamp {
		t.Fatalf("strict error = %v, want a RowError with reason %s", firstErr, RejectTimestamp)
	}
}

// TestTailCRLF: the tailer must strip a trailing \r exactly like the
// batch reader's bufio.ScanLines does, or a CRLF log parses differently
// live than in batch (the last column grows a \r).
func TestTailCRLF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	content := "#separator \\x09\n#path\tssl\n" +
		"1654041600.000000\tC1\t10.0.0.1\t1234\t192.0.2.1\t443\tTLSv12\tx.com\tT\taa\t-\t7\r\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ReadSSL(f)
	f.Close()
	if err != nil || len(batch) != 1 {
		t.Fatalf("batch: recs=%d err=%v", len(batch), err)
	}

	tl := NewSSLTail(path)
	tailed, err := tl.Poll()
	if err != nil || len(tailed) != 1 {
		t.Fatalf("tail: recs=%d err=%v", len(tailed), err)
	}
	if tailed[0].Weight != 7 || tailed[0].Weight != batch[0].Weight {
		t.Fatalf("CRLF divergence: tail weight %d, batch weight %d", tailed[0].Weight, batch[0].Weight)
	}
}

// TestTailMetrics: bytes/rows/lag series reflect a poll.
func TestTailMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	writeRows(t, path, tailRec("C1", ts), tailRec("C2", ts.Add(time.Second)))

	tl := NewSSLTail(path)
	reg := metrics.New()
	tl.Instrument(reg)
	if _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tail_rows_total", "", "file", "ssl").Value(); got != 2 {
		t.Errorf("rows metric = %d, want 2", got)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tail_bytes_read_total", "", "file", "ssl").Value(); got != uint64(fi.Size()) {
		t.Errorf("bytes metric = %d, want %d", got, fi.Size())
	}
	if got := reg.Gauge("tail_lag_bytes", "", "file", "ssl").Value(); got != 0 {
		t.Errorf("lag = %v, want 0 after full drain", got)
	}
	if got := reg.Histogram("tail_poll_seconds", "", nil, "file", "ssl").Count(); got == 0 {
		t.Error("poll duration histogram recorded nothing")
	}
}

// TestForEachSSLStop: ErrStop from a batch ends iteration cleanly — no
// error, and no further batch, the partial one at the end included.
func TestForEachSSLStop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssl.log")
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]SSLRecord, 2*DefaultBatchSize+1)
	for i := range recs {
		recs[i] = tailRec(fmt.Sprintf("C%d", i), ts)
	}
	writeRows(t, path, recs...)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var batches, rows int
	if err := ForEachSSLBatch(f, func(b []SSLRecord) error {
		batches++
		rows += len(b)
		return ErrStop
	}); err != nil {
		t.Fatal(err)
	}
	if batches != 1 || rows != DefaultBatchSize {
		t.Fatalf("saw %d batches of %d rows, want 1 of %d", batches, rows, DefaultBatchSize)
	}
}

// TestTailCopyTruncate: logrotate's copytruncate empties x509.log in
// place, on the same inode, so the tailer can tell only from the size or
// the first data line. Whether the file regrows below the offset the
// tailer had reached or past it before the next poll, every row is read
// exactly once and tail_rotations_total{file="x509"} steps by one per
// truncate.
func TestTailCopyTruncate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		regrow func(had int) int // rows written after a truncate of a file holding had
		past   bool
	}{
		{"regrown-below-offset", func(int) int { return 1 }, false},
		{"regrown-past-offset", func(had int) int { return had + 2 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x509.log")
			var want, got []string
			write := func(n int) {
				t.Helper()
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				fi, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				w := NewX509Writer(f)
				if fi.Size() > 0 {
					w.SkipHeader()
				}
				for i := 0; i < n; i++ {
					serial := fmt.Sprintf("%02X", len(want))
					want = append(want, serial)
					if err := w.Write(&X509Record{TS: date(2022, 6, 1), ID: ids.FileID("F" + serial), Cert: sampleCert(t, serial)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			tl := NewX509Tail(path)
			defer tl.Close()
			reg := metrics.New()
			tl.Instrument(reg)
			poll := func() {
				t.Helper()
				recs, err := tl.Poll()
				if err != nil {
					t.Fatal(err)
				}
				for i := range recs {
					got = append(got, recs[i].Cert.SerialHex)
				}
			}

			write(3)
			poll()
			had := 3
			for n := uint64(1); n <= 2; n++ {
				before, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				offset := tl.Offset()
				if err := os.Truncate(path, 0); err != nil {
					t.Fatal(err)
				}
				had = tc.regrow(had)
				write(had)
				after, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if !os.SameFile(before, after) || (after.Size() > offset) != tc.past {
					t.Fatalf("truncate %d: same inode %v, size %d against offset %d; want the same inode, past=%v",
						n, os.SameFile(before, after), after.Size(), offset, tc.past)
				}
				poll()
				if r := reg.Counter("tail_rotations_total", "", "file", "x509").Value(); r != n {
					t.Errorf("after truncate %d: tail_rotations_total{file=\"x509\"} = %d, want %d", n, r, n)
				}
			}
			poll() // nothing left: a row read twice would show here
			if !slices.Equal(got, want) {
				t.Fatalf("rows read %v, want each of %v once", got, want)
			}
		})
	}
}

package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/zeek"
)

func conn(uid string, ts time.Time) zeek.SSLRecord {
	return zeek.SSLRecord{
		TS: ts, UID: ids.UID(uid), OrigIP: "10.0.0.1", OrigPort: 1234,
		RespIP: "192.0.2.1", RespPort: 443, Version: "TLSv12", SNI: "example.com",
		Established: true, ServerChain: []ids.Fingerprint{"aa"}, Weight: 1,
	}
}

func conns(n int, prefix string) []zeek.SSLRecord {
	base := time.Date(2024, 5, 4, 12, 0, 0, 0, time.UTC)
	out := make([]zeek.SSLRecord, n)
	for i := range out {
		out[i] = conn(prefix+string(rune('a'+i%26))+"-"+string(rune('0'+i/26)), base.Add(time.Duration(i)*time.Second))
	}
	return out
}

// readSSL reads every row of an ssl log file.
func readSSL(t *testing.T, path string) []zeek.SSLRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := zeek.ReadSSL(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppenderInitAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := NewAppender(dir)
	if err := a.Init(); err != nil {
		t.Fatal(err)
	}
	// Both logs exist header-only: readable, zero rows.
	for _, file := range []string{SSLLog, X509Log} {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("#separator")) {
			t.Fatalf("%s does not start with a Zeek header: %q", file, data[:min(len(data), 40)])
		}
	}
	if recs := readSSL(t, filepath.Join(dir, SSLLog)); len(recs) != 0 {
		t.Fatalf("fresh ssl.log: %d rows, want 0", len(recs))
	}

	want := conns(5, "rt")
	if err := a.AppendConns(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendConns(want[2:]); err != nil {
		t.Fatal(err)
	}
	got := readSSL(t, filepath.Join(dir, SSLLog))
	if len(got) != len(want) {
		t.Fatalf("read back %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].UID != want[i].UID {
			t.Fatalf("row %d: UID %q, want %q", i, got[i].UID, want[i].UID)
		}
	}
	if a.BytesWritten() == 0 {
		t.Fatal("BytesWritten = 0 after appends")
	}
	// A second header never appears mid-file.
	data, _ := os.ReadFile(filepath.Join(dir, SSLLog))
	if n := bytes.Count(data, []byte("#separator")); n != 1 {
		t.Fatalf("ssl.log contains %d headers, want 1", n)
	}
}

// TestCoordinatedRotateLossless is the rotation protocol the harness
// relies on: no row is lost across a rename, whether the tailer was
// drained (polled to EOF) before it or not — all[7] lands after the last
// poll before the rename and is read from the renamed file.
func TestCoordinatedRotateLossless(t *testing.T) {
	dir := t.TempDir()
	a := NewAppender(dir)
	reg := metrics.New()
	tl := zeek.NewSSLTail(filepath.Join(dir, SSLLog))
	defer tl.Close()
	tl.Instrument(reg)

	all := conns(13, "ro")
	var got []zeek.SSLRecord
	poll := func() {
		t.Helper()
		recs, err := tl.Poll()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}

	if err := a.AppendConns(all[:7]); err != nil {
		t.Fatal(err)
	}
	poll() // tailer at EOF
	if err := a.AppendConns(all[7:8]); err != nil {
		t.Fatal(err)
	}
	if err := a.Rotate(SSLLog); err != nil { // not quiesced: all[7] is unread
		t.Fatal(err)
	}
	if err := a.AppendConns(all[8:]); err != nil {
		t.Fatal(err)
	}
	poll()

	if len(got) != len(all) {
		t.Fatalf("tailer saw %d rows across rotation, want %d", len(got), len(all))
	}
	for i := range got {
		if got[i].UID != all[i].UID {
			t.Fatalf("row %d: UID %q, want %q", i, got[i].UID, all[i].UID)
		}
	}
	if n := reg.Counter("tail_rotations_total", "log rotations detected", "file", "ssl").Value(); n != 1 {
		t.Fatalf("tail_rotations_total = %d, want 1", n)
	}
	// The rotated copy retains the pre-rotation rows.
	old := readSSL(t, filepath.Join(dir, SSLLog+".1"))
	if len(old) != 8 {
		t.Fatalf("rotated file has %d rows, want 8", len(old))
	}
}

func TestCopyTruncateLossless(t *testing.T) {
	dir := t.TempDir()
	a := NewAppender(dir)
	tl := zeek.NewSSLTail(filepath.Join(dir, SSLLog))

	all := conns(10, "ct")
	if err := a.AppendConns(all[:6]); err != nil {
		t.Fatal(err)
	}
	first, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CopyTruncate(SSLLog); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendConns(all[6:]); err != nil {
		t.Fatal(err)
	}
	rest, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	got := append(first, rest...)
	if len(got) != len(all) {
		t.Fatalf("tailer saw %d rows across copytruncate, want %d", len(got), len(all))
	}
	// The copy holds exactly the pre-truncation content.
	old := readSSL(t, filepath.Join(dir, SSLLog+".1"))
	if len(old) != 6 {
		t.Fatalf("copy has %d rows, want 6", len(old))
	}
	// The live file was recreated with a fresh header on the next append.
	data, _ := os.ReadFile(filepath.Join(dir, SSLLog))
	if !bytes.HasPrefix(data, []byte("#separator")) {
		t.Fatal("live file lost its header after copytruncate")
	}
}

func TestMalformedStormQuarantined(t *testing.T) {
	dir := t.TempDir()
	a := NewAppender(dir)
	var qbuf bytes.Buffer
	q := zeek.NewQuarantine(&qbuf)
	tl := zeek.NewSSLTail(filepath.Join(dir, SSLLog))
	tl.SetOptions(zeek.Options{Quarantine: q})

	all := conns(8, "ms")
	if err := a.AppendConns(all[:4]); err != nil {
		t.Fatal(err)
	}
	const marker = "CHAOS-STORM-7f3a"
	if err := a.MalformedStorm(SSLLog, marker, 25); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendConns(all[4:]); err != nil {
		t.Fatal(err)
	}
	got, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("healthy rows around the storm: got %d, want %d", len(got), len(all))
	}
	if q.Count() != 25 {
		t.Fatalf("quarantined %d rows, want 25", q.Count())
	}
	if !strings.Contains(qbuf.String(), marker) {
		t.Fatal("quarantine stream does not carry the storm marker")
	}
}

func TestThrottlePacesWrites(t *testing.T) {
	dir := t.TempDir()
	a := NewAppender(dir)
	a.Throttle = 64 << 10 // 64 KiB/s
	var slept time.Duration
	a.sleep = func(d time.Duration) { slept += d }

	recs := conns(200, "th")
	if err := a.AppendConns(recs); err != nil {
		t.Fatal(err)
	}
	bytes := a.BytesWritten()
	if bytes <= throttleChunk {
		t.Fatalf("test needs multiple chunks, wrote only %d bytes", bytes)
	}
	want := time.Duration(float64(bytes) / float64(a.Throttle) * float64(time.Second))
	if slept < want*9/10 || slept > want*11/10 {
		t.Fatalf("throttle slept %v for %d bytes at %d B/s, want ~%v", slept, bytes, a.Throttle, want)
	}
	// Rows still land whole.
	got := readSSL(t, filepath.Join(dir, SSLLog))
	if len(got) != len(recs) {
		t.Fatalf("read back %d rows, want %d", len(got), len(recs))
	}
}

func TestProcLifecycle(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProc("/bin/sh", []string{"-c", "sleep 30"}, filepath.Join(dir, "proc.log"))
	if err != nil {
		t.Skipf("cannot start /bin/sh: %v", err)
	}
	if p.PID() <= 0 {
		t.Fatalf("PID = %d", p.PID())
	}
	if p.Exited() {
		t.Fatal("process reported exited immediately")
	}
	if rss := p.RSSBytes(); rss <= 0 {
		t.Logf("RSSBytes = %d (no procfs?)", rss)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("process not exited after Kill")
	}
	if rss := p.RSSBytes(); rss != 0 {
		t.Fatalf("RSSBytes = %d after kill, want 0", rss)
	}

	// Stop: SIGTERM terminates a default sh promptly.
	p2, err := StartProc("/bin/sh", []string{"-c", "sleep 30"}, filepath.Join(dir, "proc2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Stop(5 * time.Second); err != nil {
		// sh exits nonzero on SIGTERM; what matters is that it exited.
		if !p2.Exited() {
			t.Fatalf("Stop: %v and process still running", err)
		}
	}
}

func TestRecorderStats(t *testing.T) {
	var r Recorder
	if r.MaxLag() != 0 || r.LagQuantile(0.95) != 0 || r.MaxRSS() != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for i, lag := range []int64{5, 1, 9, 3, 7} {
		r.Observe(Sample{At: float64(i), LagSSL: lag, LagX509: lag, RSSBytes: int64(100 + i)})
	}
	if got := r.MaxLag(); got != 18 {
		t.Fatalf("MaxLag = %d, want 18", got)
	}
	if got := r.LagQuantile(0); got != 2 {
		t.Fatalf("LagQuantile(0) = %d, want 2", got)
	}
	if got := r.LagQuantile(1); got != 18 {
		t.Fatalf("LagQuantile(1) = %d, want 18", got)
	}
	if got := r.MaxRSS(); got != 104 {
		t.Fatalf("MaxRSS = %d, want 104", got)
	}
	r.Record(1.5, "rotate", SSLLog)
	if len(r.Events) != 1 || r.Events[0].Kind != "rotate" {
		t.Fatalf("Events = %+v", r.Events)
	}
}

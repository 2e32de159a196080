package zeek

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/race"
)

// liveLog renders a live-shaped log pair chunk by chunk. Every chunk logs
// new certificates and the first connections presenting them — the shape
// of a monitor's live window, where nearly every certificate is one the
// tailer has never seen: 96 connections, two in three mutual with a
// client certificate of its own, a new server certificate (and SNI and
// server address) every fourth connection behind one of eight
// intermediates, a new client address each.
type liveLog struct {
	sw      *SSLWriter
	xw      *X509Writer
	ssl     bytes.Buffer
	x509    bytes.Buffer
	certs   int
	conns   int
	ts      time.Time
	inters  []ids.Fingerprint
	server  ids.Fingerprint
	srvHost string
}

const liveConnsPerChunk = 96

func newLiveLog() *liveLog {
	l := &liveLog{ts: time.Unix(1715000000, 123456000).UTC()}
	l.sw, l.xw = NewSSLWriter(&l.ssl), NewX509Writer(&l.x509)
	l.sw.SkipHeader()
	l.xw.SkipHeader()
	return l
}

// mint writes one new certificate row and returns its fingerprint.
func (l *liveLog) mint(issuer int, cn, org string, san []string) ids.Fingerprint {
	n := l.certs
	l.certs++
	fp := ids.FingerprintString(fmt.Sprint("live", n))
	c := &certmodel.CertInfo{
		Fingerprint: fp, Version: 3, SerialHex: fmt.Sprintf("%016X", n*7919+1),
		IssuerCN: fmt.Sprint("Campus Issuing CA ", issuer), IssuerOrg: "University of Somewhere",
		SubjectCN: cn, SubjectOrg: org, SANDNS: san,
		NotBefore: l.ts.AddDate(0, 0, -n%300), NotAfter: l.ts.AddDate(1, 0, n%30),
		KeyAlg: certmodel.KeyECDSA, KeyBits: 256,
	}
	if err := l.xw.Write(&X509Record{TS: l.ts, ID: ids.NewFileID(fp), Cert: c}); err != nil {
		panic(err)
	}
	return fp
}

// chunk renders the next chunk: its x509.log rows, then its ssl.log rows.
func (l *liveLog) chunk() (x509, ssl []byte) {
	l.ssl.Reset()
	l.x509.Reset()
	if l.inters == nil {
		for i := 0; i < 8; i++ {
			l.inters = append(l.inters, l.mint(i, fmt.Sprint("Campus Issuing CA ", i), "University of Somewhere", nil))
		}
	}
	for j := 0; j < liveConnsPerChunk; j++ {
		c := l.conns
		l.conns++
		l.ts = l.ts.Add(time.Millisecond)
		if c%4 == 0 {
			l.srvHost = fmt.Sprintf("svc%d.campus.edu", c/4)
			l.server = l.mint(c%8, l.srvHost, "University of Somewhere", []string{l.srvHost, "alt." + l.srvHost})
		}
		rec := SSLRecord{
			TS: l.ts, UID: ids.NewUID(ids.NewRNG(uint64(c))),
			OrigIP: fmt.Sprintf("10.%d.%d.%d", c>>16&255, c>>8&255, c&255), OrigPort: uint16(32768 + c%28000),
			RespIP: fmt.Sprintf("192.0.%d.%d", c/4%256, c/1024%256), RespPort: 443,
			Version: "TLSv13", SNI: l.srvHost, Established: true,
			ServerChain: []ids.Fingerprint{l.server, l.inters[c%8]}, Weight: 1,
		}
		if c%3 != 2 {
			rec.ClientChain = []ids.Fingerprint{l.mint(c%8, fmt.Sprintf("user%d@campus.edu", c), "", nil)}
		}
		if err := l.sw.Write(&rec); err != nil {
			panic(err)
		}
	}
	if err := l.sw.Flush(); err != nil {
		panic(err)
	}
	if err := l.xw.Flush(); err != nil {
		panic(err)
	}
	return l.x509.Bytes(), l.ssl.Bytes()
}

// liveTails tails a live-shaped log pair the way mtlsd does: one pair of
// tails sharing one intern table, x509.log polled first.
type liveTails struct {
	log    *liveLog
	xf, sf *os.File
	xt     *X509Tail
	st     *SSLTail
}

func newLiveTails(tb testing.TB) *liveTails {
	tb.Helper()
	dir := tb.TempDir()
	l := &liveTails{log: newLiveLog()}
	var err error
	if l.xf, err = os.Create(filepath.Join(dir, "x509.log")); err != nil {
		tb.Fatal(err)
	}
	if l.sf, err = os.Create(filepath.Join(dir, "ssl.log")); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.xf.Close(); l.sf.Close(); l.xt.Close(); l.st.Close() })
	xw, sw := NewX509Writer(l.xf), NewSSLWriter(l.sf)
	if err := xw.WriteHeader(); err != nil {
		tb.Fatal(err)
	}
	if err := sw.WriteHeader(); err != nil {
		tb.Fatal(err)
	}
	if err := xw.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		tb.Fatal(err)
	}
	l.st, l.xt = NewLogTails(dir)
	return l
}

// write appends the next chunk to both logs and returns its bytes.
func (l *liveTails) write(tb testing.TB) (x509, ssl []byte) {
	tb.Helper()
	x509, ssl = l.log.chunk()
	if _, err := l.xf.Write(x509); err != nil {
		tb.Fatal(err)
	}
	if _, err := l.sf.Write(ssl); err != nil {
		tb.Fatal(err)
	}
	return x509, ssl
}

// liveCost is what one file's polls took: rows read, heap allocations,
// and time inside Poll.
type liveCost struct {
	rows, allocs uint64
	busy         time.Duration
}

func (c liveCost) allocsPerRow() float64 { return float64(c.allocs) / float64(c.rows) }

// poll polls x509.log, then ssl.log, once each, adding what each poll
// took to x and s. The allocation counts bracket Poll alone.
func (l *liveTails) poll(tb testing.TB, x, s *liveCost) ([]X509Record, []SSLRecord) {
	tb.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	certs, err := l.xt.Poll()
	x.busy += time.Since(t0)
	runtime.ReadMemStats(&ms)
	x.allocs += ms.Mallocs - before
	x.rows += uint64(len(certs))
	if err != nil {
		tb.Fatal(err)
	}
	before = ms.Mallocs
	t0 = time.Now()
	conns, err := l.st.Poll()
	s.busy += time.Since(t0)
	runtime.ReadMemStats(&ms)
	s.allocs += ms.Mallocs - before
	s.rows += uint64(len(conns))
	if err != nil {
		tb.Fatal(err)
	}
	return certs, conns
}

// prefill writes and polls chunks until the strs and chains classes have
// spent their internCap: from then on every new chain, address and SNI
// misses the table, as in a monitor's live window.
func (l *liveTails) prefill(tb testing.TB) {
	tb.Helper()
	var x, s liveCost
	it := l.st.t.it
	for i := 0; it.strBytes < internCap-64 || it.chainBytes < internCap-256; i++ {
		if i == 2000 {
			tb.Fatalf("intern budgets still open after %d chunks: strs %d, chains %d bytes", i, it.strBytes, it.chainBytes)
		}
		l.write(tb)
		l.poll(tb, &x, &s)
	}
}

// BenchmarkTailLive prices a monitor's live tail: each op appends one
// chunk of new certificates and their first connections to a log pair
// and polls both tails once, after prefill has spent the intern budgets.
// ns/row and allocs/row count the polls alone; ns/op also holds the
// allocation bookkeeping around them, not the rendering.
func BenchmarkTailLive(b *testing.B) {
	l := newLiveTails(b)
	l.prefill(b)
	var x, s liveCost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.write(b)
		b.StartTimer()
		l.poll(b, &x, &s)
	}
	b.StopTimer()
	rows := float64(x.rows + s.rows)
	b.ReportMetric(float64((x.busy+s.busy).Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(x.allocs+s.allocs)/rows, "allocs/row")
	b.ReportMetric(x.allocsPerRow(), "x509-allocs/row")
	b.ReportMetric(s.allocsPerRow(), "ssl-allocs/row")
}

// TestTailLiveAllocGate pins BenchmarkTailLive's allocations per row for
// each file at the measured count plus 10 %. A live row is a new
// certificate or its first connection, so this is the count a warm
// repeated row (TestParseAllocGates) cannot see: a fingerprint copied
// twice, a chain or a UID allocated per row, a poll slice regrown.
// Measured: x509.log 1.320, ssl.log 0.025 allocs/row (before the shared
// table and the arenas: 5.93 and 8.44).
func TestTailLiveAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	l := newLiveTails(t)
	l.prefill(t)
	t.Logf("prefilled %d chunks", l.log.conns/liveConnsPerChunk)
	var x, s liveCost
	for i := 0; i < 50; i++ {
		l.write(t)
		l.poll(t, &x, &s)
	}
	t.Logf("x509.log %.3f, ssl.log %.3f allocs/row", x.allocsPerRow(), s.allocsPerRow())
	if got, want := x.allocsPerRow(), 1.320*1.1; got > want {
		t.Errorf("x509.log: %.3f allocs/row, want <= %.3f", got, want)
	}
	if got, want := s.allocsPerRow(), 0.025*1.1; got > want {
		t.Errorf("ssl.log: %.3f allocs/row, want <= %.3f", got, want)
	}
}

// TestTailArenaSafety keeps copies of poll k's records — the values, not
// the returned slice — while polls k+1…k+n reuse every scratch buffer and
// fill new arena blocks, then holds them to a fresh batch parse of the
// same lines: nothing a record holds may alias memory a later poll
// writes.
func TestTailArenaSafety(t *testing.T) {
	l := newLiveTails(t)
	var x, s liveCost
	for i := 0; i < 3; i++ {
		l.write(t)
		l.poll(t, &x, &s)
	}
	x509, ssl := l.write(t)
	x509, ssl = bytes.Clone(x509), bytes.Clone(ssl)
	certs, conns := l.poll(t, &x, &s)
	keptCerts, keptConns := append([]X509Record(nil), certs...), append([]SSLRecord(nil), conns...)
	for i := 0; i < 40; i++ { // > one string block of UIDs
		l.write(t)
		l.poll(t, &x, &s)
	}

	var wantCerts []X509Record
	err := ForEachX509Batch(strings.NewReader("#path\tx509\n"+string(x509)), func(recs []X509Record) error {
		wantCerts = append(wantCerts, recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantConns []SSLRecord
	err = ForEachSSLBatch(strings.NewReader("#path\tssl\n"+string(ssl)), func(recs []SSLRecord) error {
		wantConns = append(wantConns, recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keptCerts) == 0 || len(keptConns) == 0 {
		t.Fatalf("poll k read %d certificates, %d connections", len(keptCerts), len(keptConns))
	}
	if !reflect.DeepEqual(keptCerts, wantCerts) {
		t.Errorf("kept certificates diverged from a fresh parse")
	}
	if !reflect.DeepEqual(keptConns, wantConns) {
		t.Errorf("kept connections diverged from a fresh parse")
	}
}

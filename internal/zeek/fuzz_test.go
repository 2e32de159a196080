package zeek

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The fuzzers below pin the malformed-input contract of the TSV layer:
//
//   - permissive reads never fail on row content, only on structural
//     errors (a #path header naming another log);
//   - every data line is either delivered or quarantined — none vanish;
//   - whatever the parser accepts survives a write/re-read round trip
//     (idempotence: re-parsing the rewrite yields the same records).
//
// They found real bugs during development: NaN/Inf timestamps accepted
// by ParseFloat, UnixNano overflow corrupting round-tripped timestamps,
// literal "-"/"(empty)" values colliding with the TSV sentinels, and
// CRLF handling diverging between the batch reader and the tailer.

// tsTolerance bounds the timestamp drift of one write/re-read cycle:
// formatTS rounds to microseconds and float64 has ~2µs ulps at the ±9.2e9
// extremes of the accepted range, so two conversions stay under 5µs.
const tsTolerance = 5 * time.Microsecond

// dataLines mimics the reader's line accounting: split on \n, drop a
// trailing \r (ScanLines does), skip blank and comment lines.
func dataLines(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
	}
	return n
}

// structuralErr reports whether err is one a permissive read is allowed
// to return: a #path mismatch smuggled into the fuzz input, or a line
// beyond the scanner's buffer cap.
func structuralErr(err error) bool {
	return strings.Contains(err.Error(), "log path") || errors.Is(err, bufio.ErrTooLong)
}

func FuzzParseSSLRow(f *testing.F) {
	f.Add([]byte("1700000000.000000\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\texample.com\tT\tab12,cd34\t-\t3\n"))
	f.Add([]byte("only\tthree\tfields\n"))
	f.Add([]byte("NaN\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\texample.com\tT\t-\t-\t3\n"))
	f.Add([]byte("1e300\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\texample.com\tT\t-\t-\t3\n"))
	f.Add([]byte("1700000000.0\tC1\t10.0.0.1\t70000\t10.0.0.2\t-1\tTLSv12\texample.com\tT\t-\t-\t3\n"))
	f.Add([]byte("1700000000.0\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\texample.com\tT\t-\t-\t0\n"))
	f.Add([]byte("1700000000.0\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\t(empty)\tT\t-\t-\t2\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := "#path\tssl\n" + string(data)
		q := NewQuarantine(io.Discard)
		var rows []SSLRecord
		err := ForEachSSLBatch(strings.NewReader(input), func(recs []SSLRecord) error {
			rows = append(rows, recs...)
			return nil
		}, Permissive(), WithQuarantine(q))
		if err != nil {
			if !structuralErr(err) {
				t.Fatalf("permissive read failed on row content: %v", err)
			}
			return
		}
		if got, want := len(rows)+int(q.Count()), dataLines(input); got != want {
			t.Fatalf("rows %d + rejected %d != %d data lines", len(rows), q.Count(), want)
		}
		for i := range rows {
			checkSSLRoundTrip(t, &rows[i])
		}
		checkSSLDifferential(t, input, newInternTable())
	})
}

func checkSSLRoundTrip(t *testing.T, r1 *SSLRecord) {
	t.Helper()
	var buf bytes.Buffer
	w := NewSSLWriter(&buf)
	if err := w.Write(r1); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	again, err := ReadSSL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("accepted record did not re-read: %v\nrewritten: %q", err, buf.String())
	}
	if len(again) != 1 {
		t.Fatalf("rewrite produced %d records, want 1", len(again))
	}
	r2 := again[0]
	if d := r2.TS.Sub(r1.TS); d < -tsTolerance || d > tsTolerance {
		t.Fatalf("timestamp drifted %v over round trip (%v -> %v)", d, r1.TS, r2.TS)
	}
	r2.TS = r1.TS
	if !recordsEqualSSL(r1, &r2) {
		t.Fatalf("round trip diverged:\n first: %+v\nsecond: %+v\nrewritten: %q", *r1, r2, buf.String())
	}
}

func recordsEqualSSL(a, b *SSLRecord) bool {
	if a.UID != b.UID || a.OrigIP != b.OrigIP || a.OrigPort != b.OrigPort ||
		a.RespIP != b.RespIP || a.RespPort != b.RespPort || a.Version != b.Version ||
		a.SNI != b.SNI || a.Established != b.Established || a.Weight != b.Weight {
		return false
	}
	if len(a.ServerChain) != len(b.ServerChain) || len(a.ClientChain) != len(b.ClientChain) {
		return false
	}
	for i := range a.ServerChain {
		if a.ServerChain[i] != b.ServerChain[i] {
			return false
		}
	}
	for i := range a.ClientChain {
		if a.ClientChain[i] != b.ClientChain[i] {
			return false
		}
	}
	return true
}

func FuzzParseX509Row(f *testing.F) {
	f.Add([]byte("1700000000.000000\tF1\tabcd12\t3\t0102\tCN=Root CA,O=Example\tCN=leaf.example.com\texample.com,www.example.com\t-\t-\t-\t1690000000.000000\t1790000000.000000\trsa\t2048\tF\n"))
	f.Add([]byte("too\tfew\n"))
	f.Add([]byte("+Inf\tF1\tabcd12\t3\t-\t-\t-\t-\t-\t-\t-\t0.0\t0.0\trsa\t2048\tF\n"))
	f.Add([]byte("0.0\tF1\tabcd12\t-7\t-\t-\t-\t-\t-\t-\t-\t0.0\t0.0\trsa\t2048\tF\n"))
	f.Add([]byte("0.0\tF1\tabcd12\t3\t-\t-\t-\t-\t-\t-\t-\t0.0\t0.0\trsa\tbits\tF\n"))
	f.Add([]byte("0.0\tF1\tabcd12\t3\t-\t-\t-\t-\t-\t-\t-\t99999999999\t0.0\trsa\t256\tT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := "#path\tx509\n" + string(data)
		q := NewQuarantine(io.Discard)
		var rows []X509Record
		err := ForEachX509Batch(strings.NewReader(input), func(recs []X509Record) error {
			rows = append(rows, recs...)
			return nil
		}, Permissive(), WithQuarantine(q))
		if err != nil {
			if !structuralErr(err) {
				t.Fatalf("permissive read failed on row content: %v", err)
			}
			return
		}
		if got, want := len(rows)+int(q.Count()), dataLines(input); got != want {
			t.Fatalf("rows %d + rejected %d != %d data lines", len(rows), q.Count(), want)
		}
		for i := range rows {
			checkX509RoundTrip(t, &rows[i])
		}
		checkX509Differential(t, input, newInternTable())
	})
}

func checkX509RoundTrip(t *testing.T, r1 *X509Record) {
	t.Helper()
	var buf bytes.Buffer
	w := NewX509Writer(&buf)
	if err := w.Write(r1); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	again, err := ReadX509(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("accepted record did not re-read: %v\nrewritten: %q", err, buf.String())
	}
	if len(again) != 1 {
		t.Fatalf("rewrite produced %d records, want 1", len(again))
	}
	r2 := again[0]
	for _, ts := range [][2]time.Time{
		{r1.TS, r2.TS},
		{r1.Cert.NotBefore, r2.Cert.NotBefore},
		{r1.Cert.NotAfter, r2.Cert.NotAfter},
	} {
		if d := ts[1].Sub(ts[0]); d < -tsTolerance || d > tsTolerance {
			t.Fatalf("timestamp drifted %v over round trip", d)
		}
	}
	c1, c2 := r1.Cert, r2.Cert
	if r1.ID != r2.ID || c1.Fingerprint != c2.Fingerprint || c1.Version != c2.Version ||
		c1.SerialHex != c2.SerialHex || c1.IssuerCN != c2.IssuerCN || c1.IssuerOrg != c2.IssuerOrg ||
		c1.SubjectCN != c2.SubjectCN || c1.SubjectOrg != c2.SubjectOrg ||
		c1.KeyAlg != c2.KeyAlg || c1.KeyBits != c2.KeyBits || c1.SelfSigned != c2.SelfSigned ||
		!strsEqual(c1.SANDNS, c2.SANDNS) || !strsEqual(c1.SANIP, c2.SANIP) ||
		!strsEqual(c1.SANEmail, c2.SANEmail) || !strsEqual(c1.SANURI, c2.SANURI) {
		t.Fatalf("round trip diverged:\n first: %+v / %+v\nsecond: %+v / %+v\nrewritten: %q",
			*r1, *c1, r2, *c2, buf.String())
	}
}

func strsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzEscapeField pins the exact encode/decode chain the writers and
// parsers apply to free-text fields (SNI, DNs, SAN elements): any string
// must survive it byte for byte, including the values that collide with
// the TSV sentinels ("-", "(empty)") and the escape characters
// themselves.
func FuzzEscapeField(f *testing.F) {
	for _, s := range []string{"", "-", "(empty)", "a\tb", "a\nb", `a\x09b`, `\`, "a,b", "\r", `\x2d`, "sni.example.com"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		enc := encodeField(s)
		if strings.ContainsAny(enc, "\t\n\r") {
			t.Fatalf("encodeField(%q) = %q leaks TSV structure", s, enc)
		}
		if enc == unsetField || enc == setEmpty {
			t.Fatalf("encodeField(%q) = %q collides with a TSV sentinel", s, enc)
		}
		// The writer applies orUnset after encoding; the parser applies
		// unsetOr before decoding. The full chain must be the identity.
		if got := unescapeField(string(unsetOr(appendOrUnset(nil, enc)))); got != s {
			t.Fatalf("round trip %q -> %q -> %q", s, enc, got)
		}
		// Decoding must also be idempotent-safe on already-decoded text
		// only through the encoder: encode(decode(encode)) == encode.
		if got := encodeField(unescapeField(enc)); got != enc {
			t.Fatalf("re-encode diverged: %q -> %q -> %q", enc, unescapeField(enc), got)
		}
	})
}

// FuzzTailChunking differentially tests the tailer against the batch
// reader: the same bytes, read as a file tailed chunk by chunk, must
// yield exactly the records and rejection count the in-memory reader
// produces — regardless of where the chunk boundaries fall.
func FuzzTailChunking(f *testing.F) {
	f.Add([]byte("1700000000.0\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\ta.com\tT\t-\t-\t1\nbadrow\n1700000001.0\tC2\t10.0.0.3\t52001\t10.0.0.4\t443\tTLSv13\tb.com\tF\t-\t-\t2\n"), uint16(32))
	f.Add([]byte("NaN\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\ta.com\tT\t-\t-\t1\r\n"), uint16(7))
	f.Add([]byte("#fields\tts\n\n1700000000.0\tC1\t10.0.0.1\t1\t10.0.0.2\t2\tv\ts\tT\t-\t-\t1\n"), uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		content := "#separator \\x09\n#path\tssl\n" + string(data)
		if !strings.HasSuffix(content, "\n") {
			// The tailer only delivers complete lines; terminate the last
			// one so both readers see the same row set.
			content += "\n"
		}

		qb := NewQuarantine(io.Discard)
		var batch []SSLRecord
		berr := ForEachSSLBatch(strings.NewReader(content), func(recs []SSLRecord) error {
			batch = append(batch, recs...)
			return nil
		}, Permissive(), WithQuarantine(qb))
		if berr != nil {
			// Structural failure (e.g. a "#path x509" line in the fuzz
			// data): the tailer fails the same way; nothing to compare.
			return
		}

		path := filepath.Join(t.TempDir(), "ssl.log")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		qt := NewQuarantine(io.Discard)
		tl := NewSSLTail(path)
		tl.SetOptions(Options{Quarantine: qt})
		// A fuzz-chosen tiny chunk exercises lines that straddle and
		// exceed chunk boundaries; the floor keeps every line in this
		// corpus deliverable so the oversized-line path (which batch
		// reading has no analogue for) does not fire.
		tl.t.chunk = int64(chunk) + 4096

		var tailed []SSLRecord
		for i := 0; i <= len(content)+8; i++ {
			recs, err := tl.Poll()
			if err != nil {
				t.Fatalf("permissive tail poll failed: %v", err)
			}
			tailed = append(tailed, recs...)
			if len(recs) == 0 && tl.Offset() == int64(len(content)) {
				break
			}
		}
		if tl.Offset() != int64(len(content)) {
			t.Fatalf("tail stalled at offset %d of %d", tl.Offset(), len(content))
		}

		if len(tailed) != len(batch) || qt.Count() != qb.Count() {
			t.Fatalf("tail saw %d rows / %d rejects, batch saw %d / %d",
				len(tailed), qt.Count(), len(batch), qb.Count())
		}
		for i := range batch {
			if !tailed[i].TS.Equal(batch[i].TS) {
				t.Fatalf("row %d: tail TS %v != batch TS %v", i, tailed[i].TS, batch[i].TS)
			}
			tailed[i].TS = batch[i].TS
			if !recordsEqualSSL(&tailed[i], &batch[i]) {
				t.Fatalf("row %d diverged:\n tail: %+v\nbatch: %+v", i, tailed[i], batch[i])
			}
		}
	})
}

// FuzzParseTS pins parseTS against the silent corruptions fuzzing
// originally surfaced: every accepted timestamp must round-trip through
// formatTS within tolerance (in particular, no UnixNano overflow), and
// NaN must never be accepted. Its differential arm holds the integer
// fast path to the ParseFloat-based reference: the same accept/reject
// decision and the identical time.Time.
func FuzzParseTS(f *testing.F) {
	for _, s := range []string{"0", "1700000000.123456", "-6710083200.0", "8859283200.000000", "NaN", "+Inf", "9.3e9", "-1e18", "0x1p10", "9007199254740992", "0.0000000000000000000001"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseTS(t, s)
		ts, err := parseTS([]byte(s))
		if err != nil {
			return
		}
		back, err := parseTS([]byte(formatTS(ts)))
		if err != nil {
			t.Fatalf("accepted %q but formatTS output %q does not re-parse: %v", s, formatTS(ts), err)
		}
		if d := back.Sub(ts); d < -tsTolerance || d > tsTolerance {
			t.Fatalf("timestamp %q drifted %v through formatTS", s, d)
		}
		if f, _ := math.Modf(float64(ts.UnixNano())); math.IsNaN(f) {
			t.Fatalf("accepted %q produced NaN-derived time", s)
		}
	})
}

// forEachDataLine mimics the readers' line handling (CR strip, blank and
// comment skip) and yields each data line.
func forEachDataLine(s string, fn func(line string)) {
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fn(line)
	}
}

// sameRowError requires the two parsers to agree on acceptance and, when
// rejecting, on the quarantine reason — the taxonomy is part of the
// parser contract (dashboards alert per reason).
func sameRowError(t *testing.T, line string, gerr, werr error) bool {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("parsers disagree on %q: new err %v, reference err %v", line, gerr, werr)
	}
	if gerr == nil {
		return true
	}
	var gre, wre *RowError
	if !errors.As(gerr, &gre) || !errors.As(werr, &wre) {
		t.Fatalf("non-RowError rejection for %q: new %v, reference %v", line, gerr, werr)
	}
	if gre.Reason != wre.Reason {
		t.Fatalf("reason diverged for %q: new %s, reference %s", line, gre.Reason, wre.Reason)
	}
	return false
}

// checkSSLDifferential runs every data line through the zero-copy parser
// (interned and unintered) and the string-based reference parser and
// requires identical results.
func checkSSLDifferential(t *testing.T, input string, it *internTable) {
	t.Helper()
	forEachDataLine(input, func(line string) {
		cols := strings.Split(line, fieldSep)
		if len(cols) != len(sslFields) {
			return // field-count rejection happens before either parser
		}
		want, werr := refParseSSLCols(cols)
		for _, tab := range []*internTable{it, nil} {
			got, gerr := parseSSLCols(splitCols(nil, []byte(line)), tab)
			if !sameRowError(t, line, gerr, werr) {
				continue
			}
			if !got.TS.Equal(want.TS) {
				t.Fatalf("TS diverged for %q: new %v, reference %v", line, got.TS, want.TS)
			}
			got.TS = want.TS
			if !recordsEqualSSL(&got, &want) {
				t.Fatalf("record diverged for %q:\n      new: %+v\nreference: %+v", line, got, want)
			}
		}
	})
}

// checkX509Differential is checkSSLDifferential for x509 rows.
func checkX509Differential(t *testing.T, input string, it *internTable) {
	t.Helper()
	forEachDataLine(input, func(line string) {
		cols := strings.Split(line, fieldSep)
		if len(cols) != len(x509Fields) {
			return
		}
		want, werr := refParseX509Cols(cols)
		for _, tab := range []*internTable{it, nil} {
			got, gerr := parseX509Cols(splitCols(nil, []byte(line)), tab)
			if !sameRowError(t, line, gerr, werr) {
				continue
			}
			if !got.TS.Equal(want.TS) || !got.Cert.NotBefore.Equal(want.Cert.NotBefore) ||
				!got.Cert.NotAfter.Equal(want.Cert.NotAfter) {
				t.Fatalf("timestamps diverged for %q", line)
			}
			g, w := got.Cert, want.Cert
			if got.ID != want.ID || g.Fingerprint != w.Fingerprint || g.Version != w.Version ||
				g.SerialHex != w.SerialHex || g.IssuerCN != w.IssuerCN || g.IssuerOrg != w.IssuerOrg ||
				g.SubjectCN != w.SubjectCN || g.SubjectOrg != w.SubjectOrg ||
				g.KeyAlg != w.KeyAlg || g.KeyBits != w.KeyBits || g.SelfSigned != w.SelfSigned ||
				!strsEqual(g.SANDNS, w.SANDNS) || !strsEqual(g.SANIP, w.SANIP) ||
				!strsEqual(g.SANEmail, w.SANEmail) || !strsEqual(g.SANURI, w.SANURI) {
				t.Fatalf("record diverged for %q:\n      new: %+v\nreference: %+v", line, *g, *w)
			}
		}
	})
}

package zeek

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/certmodel"
	"repro/internal/ids"
)

// Zeek TSV conventions.
const (
	unsetField = "-"       // Zeek's "unset"
	setEmpty   = "(empty)" // Zeek's empty vector
	fieldSep   = "\t"
)

var sslFields = []string{
	"ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
	"version", "server_name", "established",
	"cert_chain_fps", "client_cert_chain_fps", "weight",
}

// sslFieldsExt is the extended ssl.log schema: the legacy columns plus
// ClientHello fingerprints. Readers accept either field count; the
// writer emits it only when asked (Extended), so fingerprint-free
// datasets stay byte-identical to the legacy format.
var sslFieldsExt = append(append([]string(nil), sslFields...), "ja3", "ja4")

var x509Fields = []string{
	"ts", "id", "fingerprint", "certificate.version", "certificate.serial",
	"certificate.issuer", "certificate.subject",
	"san.dns", "san.ip", "san.email", "san.uri",
	"certificate.not_valid_before", "certificate.not_valid_after",
	"certificate.key_alg", "certificate.key_length", "self_signed",
}

// SSLWriter emits ssl.log in Zeek TSV format. Rows are rendered into a
// reused byte buffer with strconv.Append* — no per-row column slice, no
// intermediate strings.
type SSLWriter struct {
	w      *bufio.Writer
	opened bool
	buf    []byte

	// Extended switches the writer to the 14-field schema carrying the
	// ja3/ja4 fingerprint columns. It must be set before the first Write
	// (the header is emitted lazily and fixes the schema).
	Extended bool
}

// NewSSLWriter wraps w.
func NewSSLWriter(w io.Writer) *SSLWriter { return &SSLWriter{w: bufio.NewWriter(w)} }

func (sw *SSLWriter) fields() []string {
	if sw.Extended {
		return sslFieldsExt
	}
	return sslFields
}

func writeHeader(w *bufio.Writer, path string, fields []string) error {
	if _, err := fmt.Fprintf(w, "#separator \\x09\n#path\t%s\n#fields\t%s\n",
		path, strings.Join(fields, fieldSep)); err != nil {
		return err
	}
	return nil
}

// Write appends one record.
func (sw *SSLWriter) Write(r *SSLRecord) error {
	if !sw.opened {
		if err := writeHeader(sw.w, "ssl", sw.fields()); err != nil {
			return err
		}
		sw.opened = true
	}
	b := sw.buf[:0]
	b = appendTS(b, r.TS)
	b = append(b, '\t')
	b = append(b, r.UID...)
	b = append(b, '\t')
	b = appendOrUnset(b, r.OrigIP)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(r.OrigPort), 10)
	b = append(b, '\t')
	b = appendOrUnset(b, r.RespIP)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(r.RespPort), 10)
	b = append(b, '\t')
	b = appendOrUnset(b, r.Version)
	b = append(b, '\t')
	b = appendEncodedOrUnset(b, r.SNI)
	b = append(b, '\t')
	b = appendBool(b, r.Established)
	b = append(b, '\t')
	b = appendFPs(b, r.ServerChain)
	b = append(b, '\t')
	b = appendFPs(b, r.ClientChain)
	b = append(b, '\t')
	b = strconv.AppendInt(b, max(r.Weight, 1), 10)
	if sw.Extended {
		b = append(b, '\t')
		b = appendOrUnset(b, r.JA3)
		b = append(b, '\t')
		b = appendOrUnset(b, r.JA4)
	}
	b = append(b, '\n')
	sw.buf = b
	_, err := sw.w.Write(b)
	return err
}

// Flush flushes buffered rows.
func (sw *SSLWriter) Flush() error { return sw.w.Flush() }

// SkipHeader marks the header as already written — for appending rows
// to an existing log.
func (sw *SSLWriter) SkipHeader() { sw.opened = true }

// WriteHeader emits the header immediately if it has not been written —
// for creating a well-formed empty log before any rows exist.
func (sw *SSLWriter) WriteHeader() error {
	if sw.opened {
		return nil
	}
	sw.opened = true
	return writeHeader(sw.w, "ssl", sw.fields())
}

// X509Writer emits x509.log in Zeek TSV format. Like SSLWriter it
// renders into a reused row buffer; each DN is built by certmodel.AppendDN
// into a reused scratch buffer and escaped from there into the row.
type X509Writer struct {
	w      *bufio.Writer
	opened bool
	buf    []byte
	dn     []byte
}

// NewX509Writer wraps w.
func NewX509Writer(w io.Writer) *X509Writer { return &X509Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (xw *X509Writer) Write(r *X509Record) error {
	if !xw.opened {
		if err := writeHeader(xw.w, "x509", x509Fields); err != nil {
			return err
		}
		xw.opened = true
	}
	c := r.Cert
	b := xw.buf[:0]
	b = appendTS(b, r.TS)
	b = append(b, '\t')
	b = append(b, r.ID...)
	b = append(b, '\t')
	b = append(b, c.Fingerprint...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(c.Version), 10)
	b = append(b, '\t')
	b = appendOrUnset(b, c.SerialHex)
	b = append(b, '\t')
	b = xw.appendDN(b, c.IssuerCN, c.IssuerOrg)
	b = append(b, '\t')
	b = xw.appendDN(b, c.SubjectCN, c.SubjectOrg)
	b = append(b, '\t')
	b = appendStrs(b, c.SANDNS)
	b = append(b, '\t')
	b = appendStrs(b, c.SANIP)
	b = append(b, '\t')
	b = appendStrs(b, c.SANEmail)
	b = append(b, '\t')
	b = appendStrs(b, c.SANURI)
	b = append(b, '\t')
	b = appendTS(b, c.NotBefore)
	b = append(b, '\t')
	b = appendTS(b, c.NotAfter)
	b = append(b, '\t')
	b = append(b, c.KeyAlg.String()...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(c.KeyBits), 10)
	b = append(b, '\t')
	b = appendBool(b, c.SelfSigned)
	b = append(b, '\n')
	xw.buf = b
	_, err := xw.w.Write(b)
	return err
}

// appendDN writes the encoded DN column for (cn, org): the bytes of
// appendEncodedOrUnset(b, certmodel.FormatDN(cn, org)) without the string.
func (xw *X509Writer) appendDN(b []byte, cn, org string) []byte {
	xw.dn = certmodel.AppendDN(xw.dn[:0], cn, org)
	return appendEncodedOrUnset(b, bstr(xw.dn))
}

// Flush flushes buffered rows.
func (xw *X509Writer) Flush() error { return xw.w.Flush() }

// SkipHeader marks the header as already written — for appending rows
// to an existing log.
func (xw *X509Writer) SkipHeader() { xw.opened = true }

// WriteHeader emits the header immediately if it has not been written —
// for creating a well-formed empty log before any rows exist.
func (xw *X509Writer) WriteHeader() error {
	if xw.opened {
		return nil
	}
	xw.opened = true
	return writeHeader(xw.w, "x509", x509Fields)
}

// bstr views b as a string without copying. The view aliases b, so it is
// only handed to functions that do not retain their argument (strconv
// parsers); anything that outlives the current row must copy.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseSSLCols decodes one ssl.log row from its raw columns (aliases into
// the reader's buffer — everything retained is copied or interned).
// Malformed columns return a *RowError carrying the quarantine reason;
// the caller decides whether that aborts (strict) or skips (permissive).
func parseSSLCols(cols [][]byte, it *internTable) (SSLRecord, error) {
	ts, err := parseTS(cols[0])
	if err != nil {
		return SSLRecord{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	op, err := parsePort(cols[3])
	if err != nil {
		return SSLRecord{}, rowErrf(RejectPort, "orig port: %v", err)
	}
	rp, err := parsePort(cols[5])
	if err != nil {
		return SSLRecord{}, rowErrf(RejectPort, "resp port: %v", err)
	}
	w, err := strconv.ParseInt(bstr(cols[11]), 10, 64)
	if err != nil {
		return SSLRecord{}, rowErrf(RejectWeight, "weight: %v", reparseIntErr(cols[11]))
	}
	if w < 1 {
		// The writer clamps weights to >= 1; zero or negative weights
		// here would silently corrupt every weighted tally downstream.
		return SSLRecord{}, rowErrf(RejectWeight, "weight %d < 1", w)
	}
	rec := SSLRecord{
		TS:          ts,
		UID:         ids.UID(it.cut(cols[1])),
		OrigIP:      it.str(unsetOr(cols[2])),
		OrigPort:    op,
		RespIP:      it.str(unsetOr(cols[4])),
		RespPort:    rp,
		Version:     it.str(unsetOr(cols[6])),
		SNI:         it.unescaped(unsetOr(cols[7])),
		Established: string(cols[8]) == "T",
		ServerChain: it.fps(cols[9]),
		ClientChain: it.fps(cols[10]),
		Weight:      w,
	}
	if len(cols) >= len(sslFieldsExt) {
		// Extended schema: ja3/ja4 fingerprint columns. Interned — a
		// dataset has few distinct fingerprints across many rows.
		rec.JA3 = it.str(unsetOr(cols[12]))
		rec.JA4 = it.str(unsetOr(cols[13]))
	}
	return rec, nil
}

// parseX509Cols decodes one x509.log row. Malformed columns return a
// *RowError carrying the quarantine reason.
func parseX509Cols(cols [][]byte, it *internTable) (X509Record, error) {
	ts, err := parseTS(cols[0])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	nb, err := parseTS(cols[11])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	na, err := parseTS(cols[12])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	ver, err := strconv.Atoi(bstr(cols[3]))
	if err != nil || ver < 0 {
		return X509Record{}, rowErrf(RejectCertVersion, "cert version %q", cols[3])
	}
	bits, err := strconv.Atoi(bstr(cols[14]))
	if err != nil || bits < 0 {
		return X509Record{}, rowErrf(RejectKeyLength, "key length %q", cols[14])
	}
	icn, iorg := it.dn(cols[5])
	cert := &certmodel.CertInfo{
		Version:    ver,
		IssuerCN:   icn,
		IssuerOrg:  iorg,
		NotBefore:  nb,
		NotAfter:   na,
		KeyAlg:     parseKeyAlg(cols[13]),
		KeyBits:    bits,
		SelfSigned: string(cols[15]) == "T",
	}
	id := it.certRow(cols, cert)
	return X509Record{TS: ts, ID: id, Cert: cert}, nil
}

// ErrStop, returned from a ForEach callback, stops iteration without
// error — the streaming reader's early exit.
var ErrStop = errors.New("zeek: stop iteration")

// ForEachSSLBatch streams an ssl.log in record batches of
// DefaultBatchSize: one callback per batch, sized for
// Engine.IngestConnBatch. The slice is reused between calls — fn must
// copy any records it retains past its return (the engine's batch ingest
// does). The default is strict (the first malformed row aborts with an
// error); pass Permissive and its companions to quarantine bad rows
// instead. Rows parsed before a strict-mode error are still delivered. fn
// may return ErrStop to end early.
func ForEachSSLBatch(r io.Reader, fn func([]SSLRecord) error, opts ...Opt) error {
	return forEachBatch(r, "ssl", len(sslFields), resolveOpts(opts), parseSSLCols, fn)
}

// ForEachX509Batch streams an x509.log in record batches, the
// certificate-side counterpart of ForEachSSLBatch.
func ForEachX509Batch(r io.Reader, fn func([]X509Record) error, opts ...Opt) error {
	return forEachBatch(r, "x509", len(x509Fields), resolveOpts(opts), parseX509Cols, fn)
}

// forEachBatch is the one reader: readTSV's rows parsed into records of
// one log and handed over DefaultBatchSize at a time.
func forEachBatch[T any](r io.Reader, kind string, fields int, o Options,
	parse func([][]byte, *internTable) (T, error), fn func([]T) error) error {
	it := newInternTable()
	buf := make([]T, 0, DefaultBatchSize)
	err := readTSV(r, kind, fields, o, func(cols [][]byte) error {
		rec, err := parse(cols, it)
		if err != nil {
			return err
		}
		buf = append(buf, rec)
		if len(buf) >= DefaultBatchSize {
			err := fn(buf)
			buf = buf[:0]
			return err
		}
		return nil
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	if len(buf) > 0 {
		if ferr := fn(buf); err == nil && !errors.Is(ferr, ErrStop) {
			err = ferr
		}
	}
	return err
}

// ReadSSL parses an ssl.log stream, strictly; on an error it returns the
// rows parsed before it.
func ReadSSL(r io.Reader) ([]SSLRecord, error) { return readAll(r, ForEachSSLBatch) }

// ReadX509 parses an x509.log stream, strictly, like ReadSSL.
func ReadX509(r io.Reader) ([]X509Record, error) { return readAll(r, ForEachX509Batch) }

func readAll[T any](r io.Reader, each func(io.Reader, func([]T) error, ...Opt) error) ([]T, error) {
	var out []T
	err := each(r, func(recs []T) error {
		out = append(out, recs...)
		return nil
	})
	return out, err
}

// LoadDataset reads both logs and joins them, strict by default. With
// Permissive, a corrupt row is quarantined and the rest of the dataset
// still loads.
func LoadDataset(ssl, x509 io.Reader, opts ...Opt) (*Dataset, error) {
	d := NewDataset()
	err := ForEachSSLBatch(ssl, func(recs []SSLRecord) error {
		d.Conns = append(d.Conns, recs...)
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	err = ForEachX509Batch(x509, func(recs []X509Record) error {
		for i := range recs {
			d.AddCert(recs[i].Cert)
		}
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// pathHeader prefixes the #path header line.
var pathHeader = []byte("#path" + fieldSep)

// altFieldCount returns the alternate accepted column count for a log
// path: ssl rows may carry the extended fingerprint columns.
func altFieldCount(path string, nFields int) int {
	if path == "ssl" && nFields == len(sslFields) {
		return len(sslFieldsExt)
	}
	return nFields
}

// readTSV drives the line loop shared by both schemas, handing each data
// line's columns to row as sub-slices of the scanner's buffer — no line
// string, no column slice allocation per row. row returns *RowError for
// malformed content; under permissive Options those are quarantined and
// the loop continues, which is what lets one corrupt row pass through a
// 23-month ingest without either aborting the batch or wedging a tailer.
// Structural errors (a #path header naming a different log, an
// unreadable source) abort in both modes — they mean the whole file is
// wrong, not one row.
func readTSV(r io.Reader, wantPath string, nFields int, o Options, row func([][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	alt := altFieldCount(wantPath, nFields)
	cols := make([][]byte, 0, nFields+1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if bytes.HasPrefix(line, pathHeader) {
				if got := line[len(pathHeader):]; string(got) != wantPath {
					return fmt.Errorf("zeek: log path %q, want %q", got, wantPath)
				}
			}
			continue
		}
		cols = splitCols(cols[:0], line)
		if len(cols) != nFields && len(cols) != alt {
			re := rowErrf(RejectFieldCount, "%d fields, want %d", len(cols), nFields)
			re.Line, re.Raw = int64(lineNo), string(line)
			if o.Strict {
				return re
			}
			o.reject(wantPath, re)
			continue
		}
		if err := row(cols); err != nil {
			var re *RowError
			if errors.As(err, &re) && !o.Strict {
				re.Line, re.Raw = int64(lineNo), string(line)
				o.reject(wantPath, re)
				continue
			}
			return fmt.Errorf("zeek: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// splitCols appends line's tab-separated columns to dst as sub-slices of
// line. Columns are short (a row is a dozen or more of them), so a call
// to bytes.IndexByte per column costs more than the scan: the tabs are
// found eight bytes at a time instead. A byte of w is zero exactly where
// the line holds a tab; ^((w&low7 + low7) | w | low7) sets the top bit of
// exactly those bytes — the sum cannot carry out of a byte, so unlike the
// shorter (w-0x01…)&^w&0x80… form it marks no byte falsely.
func splitCols(dst [][]byte, line []byte) [][]byte {
	const (
		tabs = 0x0909090909090909
		low7 = 0x7f7f7f7f7f7f7f7f
	)
	start, i := 0, 0
	for ; i+8 <= len(line); i += 8 {
		w := binary.LittleEndian.Uint64(line[i:]) ^ tabs
		for m := ^((w&low7 + low7) | w | low7); m != 0; m &= m - 1 {
			j := i + bits.TrailingZeros64(m)>>3
			dst = append(dst, line[start:j])
			start = j + 1
		}
	}
	for ; i < len(line); i++ {
		if line[i] == '\t' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

func formatTS(t time.Time) string { return string(appendTS(nil, t)) }

// appendTS renders t as epoch seconds with six decimals: the bytes of
// strconv.AppendFloat(b, float64(t.UnixNano())/1e9, 'f', 6, 64).
func appendTS(b []byte, t time.Time) []byte {
	return appendFixed6(b, float64(t.UnixNano())/1e9)
}

// appendFixed6 is strconv.AppendFloat(b, f, 'f', 6, 64). Given an explicit
// precision, strconv rounds through its multiprecision decimal; here f's
// exact value m·2^-s is scaled by 10^6 and rounded in 128-bit integer
// arithmetic instead — to nearest, an exact tie to even, as strconv does.
// Values whose microsecond count overflows a uint64, magnitudes below
// 2^-12 (zero and subnormals included), NaN and Inf go to strconv.
func appendFixed6(b []byte, f float64) []byte {
	const micro = 1_000_000
	fb := math.Float64bits(f)
	exp := int(fb>>52) & 0x7ff
	s := 1075 - exp // f = mant · 2^-s for a normal f
	if exp == 0 || exp == 0x7ff || s <= 0 || s > 64 {
		return strconv.AppendFloat(b, f, 'f', 6, 64)
	}
	mant := fb&(1<<52-1) | 1<<52
	hi, lo := bits.Mul64(mant, micro)
	var q, r, half uint64
	if s == 64 {
		q, r, half = hi, lo, 1<<63
	} else {
		if hi>>s != 0 {
			return strconv.AppendFloat(b, f, 'f', 6, 64)
		}
		q, r, half = hi<<(64-s)|lo>>s, lo&(1<<s-1), 1<<(s-1)
	}
	if r > half || r == half && q&1 == 1 {
		q++
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/micro, 10)
	frac := q % micro
	return append(b, '.',
		byte('0'+frac/100000), byte('0'+frac/10000%10), byte('0'+frac/1000%10),
		byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// maxTS bounds accepted epoch timestamps to ±9.2e9 seconds (~1678 to
// ~2261), just inside the ±~9.22e9 where time.Time.UnixNano overflows
// and a round trip through formatTS silently corrupts the value (found
// by FuzzParseSSLRow). The range is symmetric because real certificates
// do carry absurd validity dates (the paper's bad-dates analysis sees
// not_valid_after values in 1757 and far-future years); those are data,
// while anything unrepresentable is a corrupt row.
const maxTS = 9_200_000_000

func parseTS(b []byte) (time.Time, error) {
	f, ok := parseDecimal(b)
	if !ok {
		var err error
		if f, err = strconv.ParseFloat(bstr(b), 64); err != nil {
			// Re-parse from a copy: the strconv error retains its input
			// string, which must not alias the reader's reused buffer.
			return time.Time{}, fmt.Errorf("zeek: timestamp %q: %w", b, reparseFloatErr(b))
		}
	}
	// ParseFloat accepts "NaN" and "Inf"; int64(NaN) is unspecified, so
	// these must be rejected before conversion, not discovered as
	// garbage dates downstream.
	if math.IsNaN(f) || f < -maxTS || f > maxTS {
		return time.Time{}, fmt.Errorf("zeek: timestamp %q outside ±%d", b, int64(maxTS))
	}
	sec := int64(f)
	nsec := int64((f - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC(), nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseDecimal is strconv.ParseFloat(b, 64) for the [-]digits[.digits]
// timestamps Zeek writes, when the digits, read as one integer m, stay
// below 2^53 and at most 22 of them follow the point. Both m and 10^k are
// then exact float64 values, so the one division float64(m) / 10^k is
// the correctly rounded value ParseFloat returns — the exact path strconv
// itself takes first. ok is false for anything else (a sign other than a
// leading '-', an exponent, a bare point, too many digits), which
// ParseFloat handles.
func parseDecimal(b []byte) (f float64, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	var m uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if m = m*10 + uint64(b[i]-'0'); m >= 1<<53 {
			return 0, false
		}
	}
	if i == 0 {
		return 0, false
	}
	k := 0
	if i < len(b) {
		if b[i] != '.' {
			return 0, false
		}
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if m = m*10 + uint64(b[i]-'0'); m >= 1<<53 {
				return 0, false
			}
			k++
		}
		if k == 0 || k >= len(pow10) || i < len(b) {
			return 0, false
		}
	}
	f = float64(m) / pow10[k]
	if neg {
		f = -f
	}
	return f, true
}

// reparseFloatErr re-derives a ParseFloat error against a copied string,
// for the cold error path only.
func reparseFloatErr(b []byte) error {
	_, err := strconv.ParseFloat(string(b), 64)
	return err
}

// reparseIntErr is reparseFloatErr for ParseInt.
func reparseIntErr(b []byte) error {
	_, err := strconv.ParseInt(string(b), 10, 64)
	return err
}

// parsePort decodes a Zeek port column, rejecting values a uint16 cast
// would silently truncate (port 70000 is a corrupt row, not port 4464).
func parsePort(b []byte) (uint16, error) {
	p, err := strconv.Atoi(bstr(b))
	if err != nil {
		_, err = strconv.Atoi(string(b))
		return 0, err
	}
	if p < 0 || p > 65535 {
		return 0, fmt.Errorf("port %d outside [0, 65535]", p)
	}
	return uint16(p), nil
}

func parseKeyAlg(b []byte) certmodel.KeyAlg {
	switch string(b) {
	case "rsa":
		return certmodel.KeyRSA
	case "ecdsa":
		return certmodel.KeyECDSA
	default:
		return certmodel.KeyUnknown
	}
}

// isUnset reports the Zeek unset sentinel.
func isUnset(b []byte) bool { return string(b) == unsetField }

// isEmptyCol reports a vector column with no elements.
func isEmptyCol(b []byte) bool {
	return len(b) == 0 || string(b) == setEmpty || string(b) == unsetField
}

// unsetOr maps the unset sentinel to nil, leaving other values as-is.
func unsetOr(b []byte) []byte {
	if isUnset(b) {
		return nil
	}
	return b
}

// appendOrUnset writes s, or the unset sentinel when s is empty.
func appendOrUnset(b []byte, s string) []byte {
	if s == "" {
		return append(b, unsetField...)
	}
	return append(b, s...)
}

// appendEncodedOrUnset writes the escaped, sentinel-protected form of s
// (see encodeField), or the unset sentinel when s is empty.
func appendEncodedOrUnset(b []byte, s string) []byte {
	if s == "" {
		return append(b, unsetField...)
	}
	return appendEncoded(b, s)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 'T')
	}
	return append(b, 'F')
}

// appendFPs renders chain fingerprints for the cert_chain_fps column.
func appendFPs(b []byte, fps []ids.Fingerprint) []byte {
	if len(fps) == 0 {
		return append(b, setEmpty...)
	}
	for i, fp := range fps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fp...)
	}
	return b
}

// appendStrs renders a string vector column, escaping each element.
func appendStrs(b []byte, xs []string) []byte {
	if len(xs) == 0 {
		return append(b, setEmpty...)
	}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEncoded(b, x)
	}
	return b
}

// encodeField prepares one value for the log: structural characters are
// hex-escaped, and a value that would collide with a TSV sentinel — a
// literal "-" (Zeek's unset) or "(empty)" (Zeek's empty vector) — has
// its first byte escaped so it survives the round trip instead of
// silently reading back as unset/empty (found by the escape round-trip
// property test).
func encodeField(s string) string { return string(appendEncoded(nil, s)) }

// appendEncoded is encodeField into a caller-owned buffer.
func appendEncoded(b []byte, s string) []byte {
	start := len(b)
	b = appendEscaped(b, s)
	switch string(b[start:]) {
	case unsetField:
		return append(b[:start], `\x2d`...)
	case setEmpty:
		return append(b[:start], `\x28empty)`...)
	}
	return b
}

// escapeField protects the TSV structure: tabs, newlines, commas (vector
// separator) and the escape character itself are hex-escaped, Zeek style.
func escapeField(s string) string {
	if !strings.ContainsAny(s, "\t\n\r,\\") {
		return s
	}
	return string(appendEscaped(nil, s))
}

// tsvSpecial marks the bytes appendEscaped hex-escapes.
var tsvSpecial = [256]bool{'\t': true, '\n': true, '\r': true, ',': true, '\\': true}

// appendEscaped appends s with each tsvSpecial byte written as \xNN (lower
// case hex), copying the runs between them whole.
func appendEscaped(b []byte, s string) []byte {
	const hexd = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; tsvSpecial[c] {
			b = append(append(b, s[start:i]...), '\\', 'x', hexd[c>>4], hexd[c&15])
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// hasEscape reports whether b contains a candidate \x escape.
func hasEscape(b []byte) bool { return bytes.Contains(b, escMark) }

var escMark = []byte(`\x`)

func unescapeField(s string) string {
	if !strings.Contains(s, `\x`) {
		return s
	}
	return string(unescapeAppend(nil, []byte(s)))
}

// unescapeAppend decodes \xNN escapes from src into dst.
func unescapeAppend(dst, src []byte) []byte {
	for i := 0; i < len(src); i++ {
		if src[i] == '\\' && i+3 < len(src) && src[i+1] == 'x' {
			hi := unhex(src[i+2])
			lo := unhex(src[i+3])
			if hi >= 0 && lo >= 0 {
				dst = append(dst, byte(hi<<4|lo))
				i += 3
				continue
			}
		}
		dst = append(dst, src[i])
	}
	return dst
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

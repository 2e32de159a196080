package store

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/race"
	"repro/internal/workload"
)

// codecBuild is a generated campus build: what the codec carries in
// production, certificates in fingerprint order.
func codecBuild(scale int) ([]*certmodel.CertInfo, []core.ConnRecord) {
	b, err := workload.FromSpec(nil, workload.Config{Seed: 7, CertScale: scale})
	if err != nil {
		panic(err)
	}
	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	return certs, b.Raw.Conns
}

// edgeRecords are the values a generated build never holds: every
// CertInfo field set, the raw encoding, nil beside empty lists, zero times,
// a time off UTC, and fingerprints that must travel literally — too short,
// not hex, and 64 hex characters in upper case.
func edgeRecords() ([]*certmodel.CertInfo, []core.ConnRecord) {
	upper := ids.Fingerprint(strings.Repeat("AB", 32))
	almost := ids.Fingerprint(strings.Repeat("ab", 31) + "ag")
	packed := ids.Fingerprint(strings.Repeat("0f", 32))
	east := time.Date(2023, 3, 4, 5, 6, 7, 8, time.FixedZone("", 5*3600+1800))
	certs := []*certmodel.CertInfo{
		{Fingerprint: "fp1"},
		{
			Fingerprint: packed, SerialHex: "00", Version: 3,
			IssuerCN: "Issuing CA", IssuerOrg: "Org", SubjectCN: "host.example", SubjectOrg: "Subject Org",
			SANDNS: []string{"a.example", ""}, SANIP: []string{}, SANEmail: []string{"x@example"}, SANURI: nil,
			NotBefore: east, NotAfter: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
			KeyAlg: certmodel.KeyRSA, KeyBits: 2048, SelfSigned: true, DER: []byte{0x30, 0x82, 0, 0xff},
		},
		{Fingerprint: upper, Version: -1, KeyBits: -7, DER: []byte{}, NotBefore: time.Unix(-1, 5).UTC()},
		{Fingerprint: almost, SANDNS: []string{}},
	}
	conns := []core.ConnRecord{
		{Weight: 1},
		{
			TS: east, UID: "CabcDEF", OrigIP: "10.0.0.1", OrigPort: 65535, RespIP: "2001:db8::1", RespPort: 443,
			Version: "TLSv13", SNI: "host.example", Established: true,
			ServerChain: []ids.Fingerprint{packed, upper, "", almost}, ClientChain: []ids.Fingerprint{},
			JA3: "771,4865", JA4: "t13d1516h2", Weight: 1 << 40,
		},
		{ServerChain: nil, ClientChain: []ids.Fingerprint{"fp1"}, Weight: -3},
	}
	return certs, conns
}

// roundTrip encodes the records, decodes them, requires deep equality and
// that the decoded values encode to the same bytes, and returns the bytes.
func roundTrip(t *testing.T, certs []*certmodel.CertInfo, conns []core.ConnRecord) (certBytes, connBytes []byte) {
	t.Helper()
	seqs := func(n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(i) * 300 // one- and two-byte varints, and three
		}
		return s
	}
	certBytes = AppendCerts(nil, certs, seqs(len(certs)))
	d := NewDecoder(certBytes)
	gotCerts, gotSeqs := d.Certs()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCerts, certs) || !reflect.DeepEqual(gotSeqs, seqs(len(certs))) {
		for i := range certs {
			if !reflect.DeepEqual(gotCerts[i], certs[i]) {
				t.Fatalf("certificate %d decoded as\n%+v\nwant\n%+v", i, gotCerts[i], certs[i])
			}
		}
		t.Fatal("certificate sequences drifted")
	}
	if again := AppendCerts(nil, gotCerts, gotSeqs); !bytes.Equal(again, certBytes) {
		t.Fatal("certificates: encode(decode(b)) != b")
	}

	connBytes = AppendConns(nil, conns, seqs(len(conns)))
	d = NewDecoder(connBytes)
	gotConns, gotSeqs := d.Conns()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotConns, conns) || !reflect.DeepEqual(gotSeqs, seqs(len(conns))) {
		for i := range conns {
			if !reflect.DeepEqual(gotConns[i], conns[i]) {
				t.Fatalf("connection %d decoded as\n%+v\nwant\n%+v", i, gotConns[i], conns[i])
			}
		}
		t.Fatal("connection sequences drifted")
	}
	if again := AppendConns(nil, gotConns, gotSeqs); !bytes.Equal(again, connBytes) {
		t.Fatal("connections: encode(decode(b)) != b")
	}
	return certBytes, connBytes
}

// TestRecordCodecRoundTrip is the codec's contract over generated builds
// and over the values they never hold: what comes back is deeply equal to
// what went in, and encodes to the bytes it came from.
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, scale := range []int{20000, 2000} {
		certs, conns := codecBuild(scale)
		if len(certs) == 0 || len(conns) == 0 {
			t.Fatal("build is vacuous")
		}
		certBytes, _ := roundTrip(t, certs, conns)
		// A build's fingerprints are SHA-256s: each travels as 33 bytes.
		if per := len(certBytes) / len(certs); per > 200 {
			t.Errorf("scale %d: %d bytes per certificate — fingerprints are not packing", scale, per)
		}
	}
	edgeCerts, edgeConns := edgeRecords()
	roundTrip(t, edgeCerts, edgeConns)

	upper := ids.Fingerprint(strings.Repeat("AB", 32))
	if b := AppendFingerprint(nil, upper); len(b) != 65 || string(b[1:]) != string(upper) {
		t.Errorf("an upper-case fingerprint travelled as %d bytes: packed, it would come back lower-case", len(b))
	}
	if b := AppendFingerprint(nil, ids.Fingerprint(strings.ToLower(string(upper)))); len(b) != 33 {
		t.Errorf("a lower-case SHA-256 travelled as %d bytes, want 33", len(b))
	}
}

func testPairs() []interception.Pair {
	sha := ids.Fingerprint(strings.Repeat("c4", 32))
	return []interception.Pair{
		{Issuer: "Proxy CA", Leaf: sha},
		{Issuer: "Proxy CA", Leaf: "fp2"},
		{Issuer: "Proxy CA", Domain: "example.com"},
		{Issuer: "", Leaf: ""},
		{Issuer: "Other", Domain: "example.org"},
		{Issuer: "Proxy CA", Domain: "example.net"},
	}
}

// TestPairCodecRoundTrip: pairs come back in order and re-encode to the
// same bytes, a run of one issuer spelling it once.
func TestPairCodecRoundTrip(t *testing.T) {
	pairs := testPairs()
	b := AppendPairs(nil, pairs)
	d := NewDecoder(b)
	got := d.Pairs()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pairs) {
		t.Fatalf("pairs decoded as %+v, want %+v", got, pairs)
	}
	if again := AppendPairs(nil, got); !bytes.Equal(again, b) {
		t.Fatal("pairs: encode(decode(b)) != b")
	}
	if n := bytes.Count(b, []byte("Proxy CA")); n != 2 {
		t.Errorf("the issuer of a run of three and a later single is spelled %d times, want 2", n)
	}
	d = NewDecoder(AppendPairs(nil, nil))
	if got := d.Pairs(); len(got) != 0 || d.End() != nil {
		t.Fatalf("no pairs decoded as %v, %v", got, d.End())
	}
}

// decodeAll decodes b as each of the three record lists and reports
// which decoded, re-encoding what did.
func decodeAll(b []byte) (reencoded [3][]byte, errs [3]error) {
	d := NewDecoder(b)
	certs, certSeqs := d.Certs()
	if errs[0] = d.End(); errs[0] == nil {
		reencoded[0] = AppendCerts(nil, certs, certSeqs)
	}
	d = NewDecoder(b)
	conns, connSeqs := d.Conns()
	if errs[1] = d.End(); errs[1] == nil {
		reencoded[1] = AppendConns(nil, conns, connSeqs)
	}
	d = NewDecoder(b)
	pairs := d.Pairs()
	if errs[2] = d.End(); errs[2] == nil {
		reencoded[2] = AppendPairs(nil, pairs)
	}
	return reencoded, errs
}

// TestRecordDecodeTruncated: a record list cut at any byte is ErrCorrupt
// under the decoder that wrote it — there is no prefix that parses.
func TestRecordDecodeTruncated(t *testing.T) {
	certs, conns := edgeRecords()
	certBytes, connBytes := roundTrip(t, certs, conns)
	for which, b := range [][]byte{certBytes, connBytes, AppendPairs(nil, testPairs())} {
		for cut := 0; cut < len(b); cut++ {
			_, errs := decodeAll(b[:cut])
			if !errors.Is(errs[which], ErrCorrupt) {
				t.Fatalf("list %d cut at %d of %d: err = %v, want ErrCorrupt", which, cut, len(b), errs[which])
			}
		}
	}
}

// TestRecordDecodeRefusesOtherSpellings pins canonicity: each value has
// one encoding and the decoder refuses the others.
func TestRecordDecodeRefusesOtherSpellings(t *testing.T) {
	sha := strings.Repeat("0f", 32)
	for name, b := range map[string][]byte{
		"padded varint":               {0x80, 0x00},
		"varint past 64 bits":         {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"literal fingerprint packs":   append([]byte{65}, sha...),
		"count beyond the frame":      {0x7f},
		"string beyond the frame":     {5, 'a', 'b'},
		"short packed fingerprint":    append([]byte{0}, sha[:31]...),
		"bool of two":                 {2},
		"nanoseconds of a second":     {0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0},
		"zone offset of a day":        {0, 0, 0x80, 0xc6, 0x0a},
		"pair repeating its issuer":   {2, 0, 1, 'x', 1, 0, 1, 'x', 1},
		"first pair without issuer":   {1, 2, 1},
		"contradicted without domain": {1, 1, 1, 'x', 0},
		"pair tag out of range":       {1, 4, 1, 'x', 1},
	} {
		d := NewDecoder(b)
		switch {
		case strings.Contains(name, "varint"), strings.Contains(name, "count"):
			d.Count(1)
		case strings.Contains(name, "string"):
			_ = d.String()
		case strings.Contains(name, "fingerprint"):
			d.Fingerprint()
		case strings.Contains(name, "bool"):
			d.Bool()
		case strings.Contains(name, "pair"), strings.Contains(name, "contradicted"):
			d.Pairs()
		default:
			d.Time()
		}
		if err := d.End(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The one accepted spelling of each, for contrast.
	d := NewDecoder(append(AppendFingerprint(nil, ids.Fingerprint(sha)), AppendTime(nil, time.Time{})...))
	if fp, ts := d.Fingerprint(), d.Time(); string(fp) != sha || !ts.IsZero() || d.End() != nil {
		t.Fatalf("canonical fingerprint and zero time decoded as %q, %v, %v", fp, ts, d.End())
	}
}

// TestRecordDecodeBoundsAllocation: a count is believed only as far as
// the bytes behind it could hold that many records, so what a hostile
// frame makes the decoder allocate is bounded by the frame's own size.
func TestRecordDecodeBoundsAllocation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	// A count of a billion ahead of 4 KiB of zeros.
	hostile := append([]byte{0x80, 0x94, 0xeb, 0xdc, 0x03}, make([]byte, 4096)...)
	for _, decode := range []func(*Decoder){
		func(d *Decoder) { d.Conns() },
		func(d *Decoder) { d.Certs() },
		func(d *Decoder) { d.Pairs() },
		func(d *Decoder) { d.Fingerprints() },
		func(d *Decoder) { _ = d.String() },
	} {
		var err error
		allocated := testing.AllocsPerRun(5, func() {
			d := NewDecoder(hostile)
			decode(d)
			err = d.End()
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hostile count accepted: %v", err)
		}
		if allocated > 8 { // the decoder, its copy of the payload, the error
			t.Fatalf("hostile count cost %v allocations", allocated)
		}
	}
}

// FuzzRecordDecode: arbitrary bytes never panic any of the record
// decoders, never make one allocate beyond a multiple of the input, and
// whatever one accepts encodes back to exactly the input — which is what
// rejects a literal fingerprint that should have been packed, along with
// every other second spelling.
func FuzzRecordDecode(f *testing.F) {
	certs, conns := edgeRecords()
	seqs := []uint64{0, 1, 300, 70000}
	f.Add(AppendCerts(nil, certs, seqs))
	f.Add(AppendConns(nil, conns, seqs[:len(conns)]))
	f.Add(AppendPairs(nil, testPairs()))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x94, 0xeb, 0xdc, 0x03})
	f.Add(append([]byte{1, 0, 65}, strings.Repeat("0f", 32)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		reencoded, errs := decodeAll(b)
		for i, err := range errs {
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decoder %d failed with %v, want ErrCorrupt", i, err)
				}
				continue
			}
			if !bytes.Equal(reencoded[i], b) {
				t.Fatalf("decoder %d accepted %x and re-encoded it as %x", i, b, reencoded[i])
			}
		}
	})
}

var codecSink int

// BenchmarkRecordCodec prices the codec per record on a generated build:
// encoding into a reused buffer must not allocate.
func BenchmarkRecordCodec(b *testing.B) {
	certs, conns := codecBuild(2000)
	certSeqs, connSeqs := make([]uint64, len(certs)), make([]uint64, len(conns))
	for i := range certSeqs {
		certSeqs[i] = uint64(i)
	}
	for i := range connSeqs {
		connSeqs[i] = uint64(len(certs) + i)
	}
	certBytes := AppendCerts(nil, certs, certSeqs)
	connBytes := AppendConns(nil, conns, connSeqs)

	b.Run("encode/conns", func(b *testing.B) {
		buf := make([]byte, 0, len(connBytes))
		b.ReportAllocs()
		b.SetBytes(int64(len(connBytes) / len(conns)))
		for i := 0; i < b.N; i++ {
			buf = AppendConn(buf[:0], &conns[i%len(conns)], connSeqs[i%len(conns)])
		}
		codecSink = len(buf)
	})
	b.Run("encode/certs", func(b *testing.B) {
		buf := make([]byte, 0, len(certBytes))
		b.ReportAllocs()
		b.SetBytes(int64(len(certBytes) / len(certs)))
		for i := 0; i < b.N; i++ {
			buf = AppendCert(buf[:0], certs[i%len(certs)], certSeqs[i%len(certs)])
		}
		codecSink = len(buf)
	})
	// Decoding is per batch — one payload copy amortized over its records
	// — and reported per record.
	b.Run("decode/conns", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(connBytes) / len(conns)))
		for i := 0; i < b.N; i += len(conns) {
			d := NewDecoder(connBytes)
			got, _ := d.Conns()
			codecSink = len(got)
		}
	})
	b.Run("decode/certs", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(certBytes) / len(certs)))
		for i := 0; i < b.N; i += len(certs) {
			d := NewDecoder(certBytes)
			got, _ := d.Certs()
			codecSink = len(got)
		}
	})
}

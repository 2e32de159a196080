package zeek

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
)

// benchRows builds n representative rows: mutual-TLS connections with a
// one-certificate chain on each side, and certificates whose issuer and
// subject carry both CN and O (so the DN column holds an escaped comma),
// some with a comma inside a value and some with SAN DNS entries.
func benchRows(n int) ([]SSLRecord, []X509Record) {
	ts := time.Unix(1715000000, 123456000).UTC()
	conns := make([]SSLRecord, n)
	certs := make([]X509Record, n)
	for i := range conns {
		fp := ids.FingerprintString(fmt.Sprint("cert", i))
		c := &certmodel.CertInfo{
			Fingerprint: fp,
			SerialHex:   fmt.Sprintf("%016X", i*7919),
			Version:     3,
			IssuerCN:    "Campus Issuing CA",
			IssuerOrg:   "University of Somewhere",
			SubjectCN:   fmt.Sprintf("host%04d.campus.edu", i),
			SubjectOrg:  "University of Somewhere",
			NotBefore:   ts.AddDate(0, 0, -i%300),
			NotAfter:    ts.AddDate(1, 0, 0),
			KeyAlg:      certmodel.KeyECDSA,
			KeyBits:     256,
		}
		if i%3 == 0 {
			c.SANDNS = []string{c.SubjectCN, "alt.campus.edu"}
		}
		if i%7 == 0 {
			c.IssuerOrg = "Example, Inc."
		}
		certs[i] = X509Record{TS: c.NotBefore, ID: ids.NewFileID(fp), Cert: c}
		conns[i] = SSLRecord{
			TS: ts.Add(time.Duration(i) * time.Second), UID: ids.NewUID(ids.NewRNG(uint64(i))),
			OrigIP: "10.12.34.56", OrigPort: uint16(32768 + i), RespIP: "192.0.2.10", RespPort: 443,
			Version: "TLSv12", SNI: c.SubjectCN, Established: true,
			ServerChain: []ids.Fingerprint{fp}, ClientChain: []ids.Fingerprint{fp}, Weight: 3,
		}
	}
	return conns, certs
}

// BenchmarkSSLWrite prices rendering one ssl.log row. One row is written
// before the timer starts, so the header and the row buffer's first
// growth are not counted: allocs/op is the steady state, 0.
func BenchmarkSSLWrite(b *testing.B) {
	conns, _ := benchRows(256)
	w := NewSSLWriter(io.Discard)
	if err := w.Write(&conns[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&conns[i%len(conns)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX509Write prices rendering one x509.log row, after one
// untimed row as in BenchmarkSSLWrite.
func BenchmarkX509Write(b *testing.B) {
	_, certs := benchRows(256)
	w := NewX509Writer(io.Discard)
	if err := w.Write(&certs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&certs[i%len(certs)]); err != nil {
			b.Fatal(err)
		}
	}
}

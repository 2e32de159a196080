package zeek

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ids"
)

// sameString reports whether a and b share their bytes — one string, not
// two equal ones.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestInternBudgetsPerClass fills the chain class with unique chain
// columns over a small fingerprint pool, then requires the other classes
// to keep interning: a new IP is shared between rows and a new issuer DN
// is memoized. Before the budgets were split, one full class closed all
// three.
func TestInternBudgetsPerClass(t *testing.T) {
	it := newInternTable()
	pool := make([]string, 64)
	for i := range pool {
		pool[i] = string(ids.FingerprintString(fmt.Sprint("pool", i)))
	}
	for i := 0; it.chainBytes+3*65 <= internCap; i++ {
		it.fps([]byte(pool[i%64] + "," + pool[i/64%64] + "," + pool[i/4096%64]))
	}
	if it.strBytes > 64*64 {
		t.Fatalf("the pool's fingerprints cost the strs class %d bytes", it.strBytes)
	}

	ip := []byte("10.20.30.40")
	if a, b := it.str(ip), it.str(ip); !sameString(a, b) {
		t.Errorf("with the chain class full, an IP is no longer interned")
	}
	issuer := []byte(`CN=Campus Issuing CA 9\x2cO=Campus`)
	cn, org := it.dn(issuer)
	if p, ok := it.dns[string(issuer)]; !ok || p.cn != cn || p.org != org || cn != "Campus Issuing CA 9" {
		t.Errorf("with the chain class full, an issuer DN is not memoized: %q %q", cn, org)
	}
}

// TestInternBoundedOnUniqueFingerprints streams ssl.log rows whose every
// chain fingerprint, address and SNI is new — a hostile log, or
// certificates never logged — and requires the table to stay within its
// budgets while every row still parses to its own values. x509.log
// fingerprints are outside the budgets: certs grows by one per
// certificate and charges nothing.
func TestInternBoundedOnUniqueFingerprints(t *testing.T) {
	it := newPairTable()
	for i := 0; i < 40000; i++ {
		fp := ids.FingerprintString(fmt.Sprint("hostile", i))
		row := fmt.Sprintf("1715000000.%06d\tC%017d\t10.%d.%d.%d\t4000\t192.0.2.1\t443\tTLSv13\th%d.example\tT\t%s\t-\t1",
			i%1000000, i, i>>16&255, i>>8&255, i&255, i, fp)
		rec, err := parseSSLCols(splitCols(nil, []byte(row)), it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.ServerChain) != 1 || rec.ServerChain[0] != fp || rec.SNI != fmt.Sprintf("h%d.example", i) {
			t.Fatalf("row %d parsed to %+v", i, rec)
		}
	}
	if it.strBytes > internCap || it.chainBytes > internCap || it.dnBytes > internCap || len(it.certs) != 0 {
		t.Fatalf("table grew past its budgets: strs %d, chains %d, dns %d bytes, %d certs",
			it.strBytes, it.chainBytes, it.dnBytes, len(it.certs))
	}
	retained := 0
	for k := range it.strs {
		retained += len(k)
	}
	for k := range it.chains {
		retained += len(k)
	}
	if retained > 2*internCap {
		t.Fatalf("maps retain %d key bytes, budgets allow %d", retained, 2*internCap)
	}

	strBytes := it.strBytes
	const certs = 1000
	for i := 0; i < certs; i++ {
		row := strings.Replace(allocX509Row, "aab2c8f0e14d99", string(ids.FingerprintString(fmt.Sprint("cert", i))), 1)
		if _, err := parseX509Cols(splitCols(nil, []byte(row)), it); err != nil {
			t.Fatal(err)
		}
	}
	if len(it.certs) != certs || it.strBytes != strBytes {
		t.Fatalf("%d certificates: certs holds %d, strs grew %d bytes", certs, len(it.certs), it.strBytes-strBytes)
	}
}

// TestLogTailsShareFingerprints: a fingerprint an x509.log row brought is
// the string ssl.log chains naming it hold — hashed and copied once.
func TestLogTailsShareFingerprints(t *testing.T) {
	it := newPairTable()
	x, err := parseX509Cols(splitCols(nil, []byte(allocX509Row)), it)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseSSLCols(splitCols(nil, []byte(allocSSLRow)), it)
	if err != nil {
		t.Fatal(err)
	}
	if !sameString(string(c.ServerChain[0]), string(x.Cert.Fingerprint)) {
		t.Errorf("the chain's leaf %q is a copy of the certificate's fingerprint", c.ServerChain[0])
	}
	if it.strBytes != len("10.12.34.56")+len("192.0.2.10")+len("TLSv12")+len("vpn.campus.edu")+len("ddc1e2f3a4b5c6") {
		t.Errorf("strs holds %d bytes: the known fingerprint was charged to it", it.strBytes)
	}

	// A lone table keeps no certificate identity: nothing would read it.
	lone := newInternTable()
	if _, err := parseX509Cols(splitCols(nil, []byte(allocX509Row)), lone); err != nil {
		t.Fatal(err)
	}
	if lone.certs != nil {
		t.Errorf("a lone table keeps %d fingerprints", len(lone.certs))
	}
}

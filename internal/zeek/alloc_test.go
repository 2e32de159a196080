package zeek

import (
	"io"
	"testing"

	"repro/internal/race"
)

// Representative hot-path rows: a mutual-TLS connection with a two-cert
// server chain, and a certificate with SAN DNS entries and escaped DN
// components — the shapes a steady-state tail parses millions of times.
const (
	allocSSLRow = "1715000000.123456\tCjq1j4ZQx9QpXkLmN\t10.12.34.56\t44321\t" +
		"192.0.2.10\t443\tTLSv12\tvpn.campus.edu\tT\t" +
		"aab2c8f0e14d99\tddc1e2f3a4b5c6\t3"
	allocX509Row = "1715000000.123456\tFxk2P41CWmPgqmnh2\taab2c8f0e14d99\t3\t0a1b2c3d\t" +
		"CN=Campus Issuing CA\\x2c Inc.,O=Campus\tCN=vpn.campus.edu,O=Campus\t" +
		"vpn.campus.edu,alt.campus.edu\t-\t-\t-\t" +
		"1700000000.000000\t1760000000.000000\trsa\t2048\tF"
)

// TestParseAllocGates pins the allocation budget of the zero-copy row
// parsers against a warm intern table — the steady state of a long-lived
// tailer, where every fingerprint, issuer, SNI, and IP has been seen
// before. A regression here (an accidental []byte->string conversion, a
// dropped memo) multiplies by ~1M events/s, so it fails loudly instead
// of surfacing as a throughput cliff two PRs later.
func TestParseAllocGates(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}

	it := newInternTable()
	var sslCols, x509Cols [][]byte
	sslCols = splitCols(sslCols, []byte(allocSSLRow))
	x509Cols = splitCols(x509Cols, []byte(allocX509Row))

	// Warm the intern table so the measurement sees steady state, and
	// fail fast if the rows themselves are malformed.
	if _, err := parseSSLCols(sslCols, it); err != nil {
		t.Fatalf("ssl row: %v", err)
	}
	if _, err := parseX509Cols(x509Cols, it); err != nil {
		t.Fatalf("x509 row: %v", err)
	}

	// parseSSLCols: none — the UID, unique per row and not interned, is
	// cut from the table's string arena, one block per ~900 rows.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := parseSSLCols(sslCols, it); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("parseSSLCols: %.1f allocs/op on a warm intern table, want 0", got)
	}

	// parseX509Cols: the CertInfo itself and the []string behind its SAN
	// slices. The row's strings are cut from the table's certificate
	// arena, the issuer DN comes from its memo.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := parseX509Cols(x509Cols, it); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("parseX509Cols: %.1f allocs/op on a warm intern table, want <= 2", got)
	}
}

// TestWriteAllocGates pins both writers at zero allocations per row: rows
// are rendered into reused buffers, DNs through certmodel.AppendDN, and
// timestamps without strconv's multiprecision path.
func TestWriteAllocGates(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	conns, certs := benchRows(64)
	sw, xw := NewSSLWriter(io.Discard), NewX509Writer(io.Discard)
	// The first rows write the header and size the row buffers.
	for i := range conns {
		if err := sw.Write(&conns[i]); err != nil {
			t.Fatal(err)
		}
		if err := xw.Write(&certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		if err := sw.Write(&conns[i%len(conns)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("SSLWriter.Write: %.1f allocs/row, want 0", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := xw.Write(&certs[i%len(certs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("X509Writer.Write: %.1f allocs/row, want 0", got)
	}
}

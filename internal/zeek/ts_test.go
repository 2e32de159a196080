package zeek

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
)

// TestAppendFixed6MatchesStrconv holds the integer timestamp formatter to
// strconv.AppendFloat(f, 'f', 6, 64) on exact ties, boundaries of the
// fast path, negative values, and a random sweep of timestamps and raw
// float bit patterns.
func TestAppendFixed6MatchesStrconv(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want := strconv.AppendFloat(nil, f, 'f', 6, 64)
		if got := appendFixed6(nil, f); string(got) != string(want) {
			t.Fatalf("appendFixed6(%v [%#x]) = %s, want %s", f, math.Float64bits(f), got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 128, 3.0 / 128, -1.0 / 128, 0.0000005,
		0.0000015, 0.9999995, 0.99999949999, 1715000000.123456, 1715000000.1234565,
		-5364662400, 9.2e9, -9.2e9, 1 << 51, 1<<52 - 1, 1 << 52, 1 << 53, 1.0 / 4096, 1.0 / 8192,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(f)
	}
	rng := ids.NewRNG(1)
	for i := 0; i < 30000; i++ {
		check(float64(time.Unix(rng.Int63n(1<<34)-1<<33, rng.Int63n(1e9)).UnixNano()) / 1e9)
		check(math.Float64frombits(rng.Uint64()))
		// Exact ties: odd multiples of 2^-7 scaled into timestamp range.
		check(float64(rng.Int63n(1<<40)) + float64(2*rng.Intn(64)+1)/128)
	}
}

func FuzzAppendFixed6(f *testing.F) {
	f.Add(uint64(0x41d98d4fa807e6b7))
	f.Add(math.Float64bits(1.0 / 128))
	f.Fuzz(func(t *testing.T, fb uint64) {
		x := math.Float64frombits(fb)
		want := strconv.AppendFloat(nil, x, 'f', 6, 64)
		if got := appendFixed6(nil, x); string(got) != string(want) {
			t.Fatalf("appendFixed6(%v [%#x]) = %s, want %s", x, fb, got, want)
		}
	})
}

// checkParseTS requires parseTS to take the reference's decision on s
// and, when both accept it, to return the identical time.Time.
func checkParseTS(t *testing.T, s string) {
	t.Helper()
	want, werr := refParseTS(s)
	got, err := parseTS([]byte(s))
	if (err == nil) != (werr == nil) {
		t.Fatalf("parseTS(%q): err %v, reference err %v", s, err, werr)
	}
	if got != want {
		t.Fatalf("parseTS(%q) = %v, reference %v", s, got, want)
	}
}

// TestParseTSMatchesReference holds parseTS's integer fast path to the
// ParseFloat-based reference: random seconds and microseconds as Zeek
// writes them, strconv.FormatFloat output at every precision 0–8, the
// edges of the fast path (2^53, 22 and 23 fraction digits) and inputs
// only the fallback accepts or rejects.
func TestParseTSMatchesReference(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.000000", "1", "-1", "1715000000.123456", "-5364662400.000001",
		"9200000000", "9200000000.000001", "-9200000000", "-9200000000.0000001", "9300000000.5",
		"9007199254740991", "9007199254740992", "900719925474099.1", "900719925474099.2",
		"0.0000000000000000000001", "0.00000000000000000000001", "1.0000000000000000000001",
		"0000000000000000000000001.5", "12.", ".5", "+1.5", "1e9", "1E-3", "0x1p10", "1_0",
		"1.2.3", "", "-", ".", "-.5", "NaN", "Inf", "-Inf", "1715000000.1234567890123456789",
	} {
		checkParseTS(t, s)
	}
	rng := ids.NewRNG(7)
	for i := 0; i < 50000; i++ {
		sec := rng.Int63n(2*9_300_000_000) - 9_300_000_000
		checkParseTS(t, fmt.Sprintf("%d.%06d", sec, rng.Int63n(1e6)))
		f := float64(rng.Int63n(1<<40)-1<<39) / float64(int64(1)<<rng.Intn(40))
		for prec := 0; prec <= 8; prec++ {
			checkParseTS(t, strconv.FormatFloat(f, 'f', prec, 64))
		}
	}
}

// TestSplitColsMatchesStringsSplit holds the eight-bytes-at-a-time column
// split to strings.Split on lines of every length up to 40 over an
// alphabet of tabs and the bytes a borrow or carry between lanes would
// misread (0x00, 0x01, 0x08, 0x0a, 0x7f, 0x80, 0x89, 0xff).
func TestSplitColsMatchesStringsSplit(t *testing.T) {
	alphabet := []byte{'\t', '\t', 0x00, 0x01, 0x08, 0x0a, 0x7f, 0x80, 0x89, 0xff, 'a'}
	rng := ids.NewRNG(11)
	for n := 0; n <= 40; n++ {
		for k := 0; k < 500; k++ {
			line := make([]byte, n)
			for i := range line {
				line[i] = alphabet[rng.Intn(len(alphabet))]
			}
			got := splitCols(nil, line)
			want := strings.Split(string(line), "\t")
			if len(got) != len(want) {
				t.Fatalf("%q: %d columns, want %d", line, len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != want[i] {
					t.Fatalf("%q: column %d = %q, want %q", line, i, got[i], want[i])
				}
			}
		}
	}
}

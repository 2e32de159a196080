package zeek

import (
	"math"
	"strconv"
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

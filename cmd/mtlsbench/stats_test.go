package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool // percentile is reportable
	}{
		{99, 0.90, false}, // 9.9 samples beyond p90
		{100, 0.90, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{100, 0.05, false}, // low-side tail counts too
		{200, 0.05, true},
		{0, 0.50, false},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if got := err == nil; got != tc.want {
			t.Errorf("percentile(n=%d, q=%v): reportable=%v, want %v", tc.n, tc.q, got, tc.want)
		}
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Errorf("percentile(n=%d, q=%v): unexpected error %v", tc.n, tc.q, err)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be mutated
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	got, err := percentile(seq(101), 0.9)
	if err != nil || math.Abs(got-91) > 1e-9 {
		t.Errorf("p90 of 1..101 = %v, %v; want 91", got, err)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(xs, n=4):
// for 1..10 Python gives [2.75, 5.5, 8.25], so (8.25-2.75)/5.5 = 1.
func TestSpreadMatchesPython(t *testing.T) {
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// quantiles([10, 11, 12, 13, 30], n=4) = [10.5, 12.0, 21.5]
	if got, want := spread([]float64{30, 10, 12, 11, 13}), 11.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

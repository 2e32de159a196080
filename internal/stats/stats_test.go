package stats

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if c.Get("a") != 2 || c.Get("b") != 5 || c.Get("missing") != 0 {
		t.Fatalf("counts wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if c.Total() != 7 {
		t.Fatalf("total = %d, want 7", c.Total())
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if got := c.Share("b"); math.Abs(got-5.0/7.0) > 1e-12 {
		t.Fatalf("share = %g", got)
	}
}

func TestCounterShareEmpty(t *testing.T) {
	if NewCounter().Share("x") != 0 {
		t.Fatal("empty counter share should be 0")
	}
}

func TestCounterTopDeterministic(t *testing.T) {
	c := NewCounter()
	c.Add("zzz", 3)
	c.Add("aaa", 3)
	c.Add("big", 10)
	top := c.Top(2)
	if top[0].Key != "big" || top[1].Key != "aaa" {
		t.Fatalf("top = %+v", top)
	}
	all := c.Top(0)
	if len(all) != 3 {
		t.Fatalf("Top(0) should return all, got %d", len(all))
	}
}

// TestCounterTopIsSortedPrefix: Top(k) is the first k entries of the full
// order, for every k, over counts with many ties.
func TestCounterTopIsSortedPrefix(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 500; i++ {
		c.Add(fmt.Sprintf("k%03d", (i*37)%211), int64(i%7))
	}
	all := c.Top(0)
	for k := 1; k <= len(all)+1; k++ {
		want := all[:min(k, len(all))]
		if got := c.Top(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("Top(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestCounterKeysSorted(t *testing.T) {
	c := NewCounter()
	for _, k := range []string{"m", "a", "z"} {
		c.Inc(k)
	}
	ks := c.Keys()
	if !sort.StringsAreSorted(ks) || len(ks) != 3 {
		t.Fatalf("keys = %v", ks)
	}
}

func TestTwoWay(t *testing.T) {
	tw := NewTwoWay()
	tw.Add("r1", "c1", 2)
	tw.Add("r1", "c2", 3)
	tw.Add("r2", "c1", 5)
	if tw.Get("r1", "c2") != 3 {
		t.Fatal("cell wrong")
	}
	if tw.RowTotal("r1") != 5 || tw.ColTotal("c1") != 7 || tw.Total() != 10 {
		t.Fatal("totals wrong")
	}
	if got := tw.RowShare("r1", "c1"); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("row share = %g", got)
	}
	if tw.RowShare("empty", "c1") != 0 {
		t.Fatal("empty row share should be 0")
	}
	rows := tw.Rows()
	if rows[0] != "r2" && tw.RowTotal(rows[0]) < tw.RowTotal(rows[1]) {
		t.Fatalf("rows not sorted by total: %v", rows)
	}
	cols := tw.Cols()
	if !sort.StringsAreSorted(cols) {
		t.Fatalf("cols not sorted: %v", cols)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.5, 5}, {0.75, 8}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	xs := []int64{9, 1, 7, 3, 5}
	qs := []float64{0.1, 0.5, 0.9}
	multi := Quantiles(xs, qs...)
	for i, q := range qs {
		if single := Quantile(xs, q); single != multi[i] {
			t.Fatalf("q=%.2f: %d vs %d", q, single, multi[i])
		}
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int64, len(raw))
		var lo, hi int64 = math.MaxInt64, math.MinInt64
		for i, v := range raw {
			xs[i] = int64(v)
			if xs[i] < lo {
				lo = xs[i]
			}
			if xs[i] > hi {
				hi = xs[i]
			}
		}
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va <= vb && va >= lo && vb <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	h.Observe(5, 1)
	h.Observe(10, 1)  // inclusive upper bound
	h.Observe(11, 1)  // second bucket
	h.Observe(999, 2) // third bucket
	h.Observe(5000, 7)
	if h.Bucket(0) != 2 || h.Bucket(1) != 1 || h.Bucket(2) != 2 || h.Bucket(3) != 7 {
		t.Fatalf("buckets = %d %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(3))
	}
	if h.Total() != 12 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Buckets() != 4 {
		t.Fatalf("buckets = %d", h.Buckets())
	}
	if h.Bound(0) != 10 || h.Bound(3) != math.MaxInt64 {
		t.Fatal("bounds wrong")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5)
}

func TestMonthSeries(t *testing.T) {
	m := NewMonthSeries()
	m.Add("2022-05", 2, 100)
	m.Add("2022-05", 1, 50)
	m.Add("2022-06", 4, 100)
	pts := m.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Month != "2022-05" || pts[1].Month != "2022-06" {
		t.Fatalf("order wrong: %+v", pts)
	}
	if got := pts[0].Ratio(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("ratio = %g", got)
	}
	if (Point{Month: "x"}).Ratio() != 0 {
		t.Fatal("zero-den ratio should be 0")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.636) != "63.60" {
		t.Fatalf("Pct = %q", Pct(0.636))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "name", "count")
	tbl.AddRow("alpha", "10")
	tbl.AddRow("b")
	s := tbl.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "alpha") {
		t.Fatalf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if tbl.NumRows() != 2 {
		t.Fatal("NumRows wrong")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if got := Mean([]int64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %g", got)
	}
}

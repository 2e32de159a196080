// Package stats provides the aggregation primitives the analyses are built
// from: weighted counters, top-K extraction, quantiles, histograms, monthly
// time series, and a plain-text table renderer used by cmd/mtlsreport to
// print every table and figure of the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a weighted string→count accumulator. The zero value is not
// usable; construct with NewCounter.
type Counter struct {
	m     map[string]int64
	total int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{m: make(map[string]int64)} }

// Add adds weight w to key.
func (c *Counter) Add(key string, w int64) {
	c.m[key] += w
	c.total += w
}

// Inc adds 1 to key.
func (c *Counter) Inc(key string) { c.Add(key, 1) }

// Get returns the count for key.
func (c *Counter) Get(key string) int64 { return c.m[key] }

// Total returns the sum of all counts.
func (c *Counter) Total() int64 { return c.total }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.m) }

// Share returns key's fraction of the total, or 0 for an empty counter.
func (c *Counter) Share(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.m[key]) / float64(c.total)
}

// KV is one counter entry.
type KV struct {
	Key   string
	Count int64
}

// Top returns the k highest-count entries, ties broken lexicographically so
// output is deterministic. k <= 0 returns all entries sorted.
func (c *Counter) Top(k int) []KV {
	if k <= 0 || k >= len(c.m) {
		out := make([]KV, 0, len(c.m))
		for key, n := range c.m {
			out = append(out, KV{key, n})
		}
		sort.Slice(out, func(i, j int) bool { return kvBefore(out[i], out[j]) })
		return out
	}
	// One pass keeping the k first in order: a report asks for a handful
	// of rows from counters with thousands of keys.
	out := make([]KV, 0, k+1)
	for key, n := range c.m {
		kv := KV{key, n}
		if len(out) == k && !kvBefore(kv, out[k-1]) {
			continue
		}
		i := len(out)
		for i > 0 && kvBefore(kv, out[i-1]) {
			i--
		}
		out = append(out, KV{})
		copy(out[i+1:], out[i:])
		out[i] = kv
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// kvBefore is Top's order: higher count first, then key.
func kvBefore(a, b KV) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// Keys returns all keys sorted lexicographically.
func (c *Counter) Keys() []string {
	ks := make([]string, 0, len(c.m))
	for k := range c.m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TwoWay is a weighted (row, col)→count table, e.g. (issuer category ×
// information type).
type TwoWay struct {
	m    map[string]map[string]int64
	rowT map[string]int64
	colT map[string]int64
	tot  int64
}

// NewTwoWay returns an empty two-way table.
func NewTwoWay() *TwoWay {
	return &TwoWay{
		m:    make(map[string]map[string]int64),
		rowT: make(map[string]int64),
		colT: make(map[string]int64),
	}
}

// Add adds weight w to cell (row, col).
func (t *TwoWay) Add(row, col string, w int64) {
	inner, ok := t.m[row]
	if !ok {
		inner = make(map[string]int64)
		t.m[row] = inner
	}
	inner[col] += w
	t.rowT[row] += w
	t.colT[col] += w
	t.tot += w
}

// Get returns the count in cell (row, col).
func (t *TwoWay) Get(row, col string) int64 { return t.m[row][col] }

// RowTotal returns the sum across a row.
func (t *TwoWay) RowTotal(row string) int64 { return t.rowT[row] }

// ColTotal returns the sum down a column.
func (t *TwoWay) ColTotal(col string) int64 { return t.colT[col] }

// Total returns the grand total.
func (t *TwoWay) Total() int64 { return t.tot }

// Rows returns row labels sorted by descending row total then name.
func (t *TwoWay) Rows() []string {
	rs := make([]string, 0, len(t.rowT))
	for r := range t.rowT {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool {
		if t.rowT[rs[i]] != t.rowT[rs[j]] {
			return t.rowT[rs[i]] > t.rowT[rs[j]]
		}
		return rs[i] < rs[j]
	})
	return rs
}

// Cols returns column labels sorted lexicographically.
func (t *TwoWay) Cols() []string {
	cs := make([]string, 0, len(t.colT))
	for c := range t.colT {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return cs
}

// RowShare returns cell/rowTotal, or 0 when the row is empty.
func (t *TwoWay) RowShare(row, col string) float64 {
	rt := t.rowT[row]
	if rt == 0 {
		return 0
	}
	return float64(t.m[row][col]) / float64(rt)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using nearest-rank
// on a sorted copy; it matches the paper's "50th/75th/99th/100th" style.
// An empty slice yields 0.
func Quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileSorted(s, q)
}

// Quantiles computes several quantiles with a single sort.
func Quantiles(xs []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

func quantileSorted(s []int64, q float64) int64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Histogram is a fixed-bucket histogram over int64 values with explicit
// upper bounds; values above the last bound land in the overflow bucket.
type Histogram struct {
	bounds []int64 // upper bound of each bucket (inclusive)
	counts []int64 // len(bounds)+1, last is overflow
	total  int64
}

// NewHistogram creates a histogram; bounds must be strictly increasing.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe adds weight w at value v.
func (h *Histogram) Observe(v int64, w int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i] += w
	h.total += w
}

// Bucket returns the count of bucket i (the last index is overflow).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// Buckets returns the number of buckets including overflow.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Total returns the total observed weight.
func (h *Histogram) Total() int64 { return h.total }

// Bound returns the upper bound of bucket i; overflow reports max int64.
func (h *Histogram) Bound(i int) int64 {
	if i >= len(h.bounds) {
		return math.MaxInt64
	}
	return h.bounds[i]
}

// MonthKey is "YYYY-MM", the granularity of Figure 1.
type MonthKey string

// MonthSeries accumulates per-month numerator/denominator pairs, producing
// the mTLS-share trend of Figure 1.
type MonthSeries struct {
	num map[MonthKey]int64
	den map[MonthKey]int64
}

// NewMonthSeries returns an empty series.
func NewMonthSeries() *MonthSeries {
	return &MonthSeries{num: make(map[MonthKey]int64), den: make(map[MonthKey]int64)}
}

// Add accumulates num/den for a month.
func (m *MonthSeries) Add(k MonthKey, num, den int64) {
	m.num[k] += num
	m.den[k] += den
}

// Point is one month of the series.
type Point struct {
	Month MonthKey
	Num   int64
	Den   int64
}

// Ratio returns Num/Den (0 when Den == 0).
func (p Point) Ratio() float64 {
	if p.Den == 0 {
		return 0
	}
	return float64(p.Num) / float64(p.Den)
}

// Points returns the series in chronological (lexicographic) order.
func (m *MonthSeries) Points() []Point {
	keys := make([]MonthKey, 0, len(m.den))
	for k := range m.den {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Point, len(keys))
	for i, k := range keys {
		out[i] = Point{Month: k, Num: m.num[k], Den: m.den[k]}
	}
	return out
}

// Pct formats a ratio as a percentage with two decimals ("63.60").
func Pct(x float64) string { return fmt.Sprintf("%.2f", x*100) }

// Table renders aligned plain-text tables; every reproduced paper table is
// printed through it.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

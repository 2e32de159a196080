package zeek

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
)

// TestQuarantineByteCap pins the unbounded-growth fix: under a
// malformed-row storm a capped quarantine stops writing at the cap,
// counts every overflow drop, and keeps the file bounded — while the
// row tally (Count) still sees every rejection.
func TestQuarantineByteCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.log")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const cap = 400
	q.SetMaxBytes(cap)
	reg := metrics.New()
	q.Instrument(reg)

	const storm = 200
	for i := 0; i < storm; i++ {
		q.Record("ssl", &RowError{Reason: RejectFieldCount, Line: int64(i + 1),
			Raw: "bad\trow\twith\tsome\tbulk"})
	}
	if err := q.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > cap {
		t.Fatalf("quarantine grew to %d bytes past the %d cap", fi.Size(), cap)
	}
	if fi.Size() == 0 {
		t.Fatal("nothing written below the cap")
	}
	if q.Bytes() != fi.Size() {
		t.Errorf("Bytes() = %d, file is %d", q.Bytes(), fi.Size())
	}
	if q.Count() != storm {
		t.Errorf("Count() = %d, want %d (dropped rows still count as rejections)", q.Count(), storm)
	}
	written := q.Count() - q.Dropped()
	if q.Dropped() == 0 || written == 0 {
		t.Fatalf("dropped %d / written %d: the storm must both write and drop", q.Dropped(), written)
	}

	// The overflow counter and byte gauge are live on the registry.
	if v := reg.Counter(QuarantineDroppedMetric, "").Value(); v != q.Dropped() {
		t.Errorf("%s = %d, want %d", QuarantineDroppedMetric, v, q.Dropped())
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{QuarantineDroppedMetric, QuarantineBytesMetric} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// Lifting the cap resumes writing.
	q.SetMaxBytes(0)
	q.Record("ssl", &RowError{Reason: RejectWeight, Line: 999, Raw: "late\trow"})
	if fi2, err := os.Stat(path); err != nil || fi2.Size() <= fi.Size() {
		t.Errorf("uncapped record did not grow the file (%v, %d -> %d)", err, fi.Size(), fi2.Size())
	}
}

// TestQuarantineCapCountsExistingFile: reopening an existing quarantine
// seeds the byte accounting with the file's size, so a restart cannot
// reset the cap and double the disk footprint.
func TestQuarantineCapCountsExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.log")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q.Record("x509", &RowError{Reason: RejectTimestamp, Line: int64(i + 1), Raw: "stale"})
	}
	q.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Bytes() != fi.Size() {
		t.Fatalf("reopened Bytes() = %d, want existing size %d", q2.Bytes(), fi.Size())
	}
	// A cap at the current size drops everything immediately.
	q2.SetMaxBytes(fi.Size())
	q2.Record("x509", &RowError{Reason: RejectTimestamp, Line: 11, Raw: "stale"})
	if q2.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", q2.Dropped())
	}
	if fi2, _ := os.Stat(path); fi2.Size() != fi.Size() {
		t.Errorf("capped reopen still grew the file: %d -> %d", fi.Size(), fi2.Size())
	}
}

// TestRejectCountersAppendNonzero: the resolved counters read back in
// "file/reason" key order, nonzero ones only, each once, with the grand
// total beside them, agreeing with Totals, and without allocating into a
// slice that has room.
func TestRejectCountersAppendNonzero(t *testing.T) {
	reg := metrics.New()
	rc := ResolveRejectCounters(reg)
	reg.Counter(RejectMetric, "", "file", "x509", "reason", string(RejectCertVersion)).Add(4)
	reg.Counter(RejectMetric, "", "file", "ssl", "reason", string(RejectWeight)).Add(2)
	reg.Counter(RejectMetric, "", "file", "ssl", "reason", string(RejectFieldCount)).Inc()

	got, total := rc.AppendNonzero(nil)
	want := []RejectCount{
		{"ssl/" + string(RejectFieldCount), 1},
		{"ssl/" + string(RejectWeight), 2},
		{"x509/" + string(RejectCertVersion), 4},
	}
	if total != 7 || !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendNonzero = %v, %d; want %v, 7", got, total, want)
	}
	for i := 1; i < len(rc); i++ {
		if rc[i-1].key >= rc[i].key {
			t.Fatalf("counters not sorted by key: %q before %q", rc[i-1].key, rc[i].key)
		}
	}
	tot, byReason := rc.Totals()
	if tot != total || len(byReason) != len(want) {
		t.Fatalf("Totals = %d, %v; AppendNonzero gave %d, %v", tot, byReason, total, got)
	}
	for _, w := range want {
		if byReason[w.Key] != w.N {
			t.Errorf("Totals[%q] = %d, want %d", w.Key, byReason[w.Key], w.N)
		}
	}

	if race.Enabled {
		return
	}
	buf := make([]RejectCount, 0, len(rc))
	if n := testing.AllocsPerRun(100, func() { buf, _ = rc.AppendNonzero(buf[:0]) }); n != 0 {
		t.Errorf("AppendNonzero into a slice with room allocates %.0f", n)
	}
}

package mtls

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// campusBuild generates the campus dataset at scale.
func campusBuild(tb testing.TB, scale int) *Build {
	tb.Helper()
	b, err := Generate(nil, WithScale(scale))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestEndToEnd(t *testing.T) {
	build := campusBuild(t, 2000)
	a := Analyze(build)
	if a.CertStats.Row("Total").Total == 0 {
		t.Fatal("no certificates analyzed")
	}
	out := Render(a)
	for _, want := range []string{
		"Table 1", "Figure 1", "Table 2", "Table 3", "Figure 2",
		"Table 4", "Table 5", "Table 6", "Figure 3", "Figure 4",
		"Figure 5", "Table 7", "Table 8", "Table 9", "Table 10",
		"Table 13", "Table 14",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing section %q", want)
		}
	}
	exp := Experiments(a, "scale note")
	if !strings.Contains(exp, "| Experiment |") {
		t.Fatal("experiments markdown malformed")
	}
	// At 1/2000 one row of 46 misses, by the scale floor
	// (internal/report's scaleFloorMisses).
	var holds, rows int
	if i := strings.LastIndex(exp, "\n\n"); i < 0 {
		t.Fatal("experiments markdown has no summary")
	} else if _, err := fmt.Sscanf(exp[i+2:], "%d/%d shape checks hold.", &holds, &rows); err != nil {
		t.Fatalf("experiments summary %q: %v", exp[i+2:], err)
	}
	if holds != 45 || rows != 46 {
		t.Errorf("%d/%d shape checks hold, want 45/46", holds, rows)
	}
}

func TestLogsRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	build := campusBuild(t, 2000)
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ssl.log", "x509.log"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("log %s missing or empty: %v", f, err)
		}
	}
	ds, err := OpenLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Conns) != len(build.Raw.Conns) {
		t.Fatalf("conns: wrote %d, read %d", len(build.Raw.Conns), len(ds.Conns))
	}
	if len(ds.Certs) != len(build.Raw.Certs) {
		t.Fatalf("certs: wrote %d, read %d", len(build.Raw.Certs), len(ds.Certs))
	}
	// The reloaded dataset joins correctly: every mutual conn's leaf certs
	// resolve.
	missing := 0
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if c.IsMutual() {
			if ds.Cert(c.ServerLeaf()) == nil || ds.Cert(c.ClientLeaf()) == nil {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d mutual conns lost their certificates in the round trip", missing)
	}
}

// TestOpenLogsPermissive: corrupting one row of each log loses exactly
// that row under Permissive (counted per reason) while strict OpenLogs
// refuses the directory outright.
func TestOpenLogsPermissive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	build := campusBuild(t, 2000)
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ssl.log", "x509.log"} {
		fh, err := os.OpenFile(filepath.Join(dir, f), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteString("corrupt\trow\n"); err != nil {
			t.Fatal(err)
		}
		fh.Close()
	}

	if _, err := OpenLogs(dir); err == nil {
		t.Fatal("strict OpenLogs must fail on the corrupt rows")
	}

	reg := metrics.New()
	ds, err := OpenLogs(dir, Permissive(), WithMetrics(reg))
	if err != nil {
		t.Fatalf("permissive open: %v", err)
	}
	if len(ds.Conns) != len(build.Raw.Conns) {
		t.Fatalf("conns: wrote %d, read %d", len(build.Raw.Conns), len(ds.Conns))
	}
	if len(ds.Certs) != len(build.Raw.Certs) {
		t.Fatalf("certs: wrote %d, read %d", len(build.Raw.Certs), len(ds.Certs))
	}
	total, byReason := RejectTotals(reg)
	if total != 2 || byReason["ssl/field_count"] != 1 || byReason["x509/field_count"] != 1 {
		t.Fatalf("RejectTotals = %d %v, want one field_count per log", total, byReason)
	}
}

func TestAnalysisOnReloadedLogs(t *testing.T) {
	dir := t.TempDir()
	build := campusBuild(t, 2000)
	a1 := Analyze(build)
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	build.Raw = ds
	a2 := Analyze(build)
	// Key statistics must survive the TSV round trip exactly.
	if a1.CertStats.Row("Total").Total != a2.CertStats.Row("Total").Total {
		t.Fatalf("cert totals differ: %d vs %d",
			a1.CertStats.Row("Total").Total, a2.CertStats.Row("Total").Total)
	}
	if a1.Prevalence.FirstShare() != a2.Prevalence.FirstShare() {
		t.Fatal("prevalence differs after round trip")
	}
	if a1.SharingSame.InboundConns != a2.SharingSame.InboundConns {
		t.Fatal("sharing stats differ after round trip")
	}
}

// TestWriteLogsAtomic: WriteLogs commits via temp files and renames, so
// the directory never holds a truncated pair — stale temp files from a
// crashed writer are invisible to OpenLogs and cleaned by the next
// successful write, and rewriting over an existing pair leaves a
// strict-loadable result.
func TestWriteLogsAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	build := campusBuild(t, 2000)
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{"ssl.log.tmp", "x509.log.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Errorf("%s left behind after a successful write", tmp)
		}
	}

	// Simulate a writer that crashed mid-emit: truncated temp files must
	// not affect a strict open, and the next write replaces them.
	for _, tmp := range []string{"ssl.log.tmp", "x509.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("1654041600.0\ttrunc"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenLogs(dir); err != nil {
		t.Fatalf("stale temp files broke a strict open: %v", err)
	}
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatalf("rewrite over stale temps: %v", err)
	}
	for _, tmp := range []string{"ssl.log.tmp", "x509.log.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Errorf("%s left behind after rewrite", tmp)
		}
	}
	ds, err := OpenLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Conns) != len(build.Raw.Conns) || len(ds.Certs) != len(build.Raw.Certs) {
		t.Fatalf("rewrite lost rows: %d/%d conns, %d/%d certs",
			len(ds.Conns), len(build.Raw.Conns), len(ds.Certs), len(build.Raw.Certs))
	}
}

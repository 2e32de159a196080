package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// TestDaemonMalformedRow is the end-to-end poison-pill regression: a
// daemon tailing a live log receives a malformed row mid-stream, must
// keep ingesting everything behind it, must surface the rejection in
// /stats, /metrics, and the quarantine file, and its reports must
// deep-equal a batch engine fed only the valid rows.
func TestDaemonMalformedRow(t *testing.T) {
	build := campusBuild(t, testScale)
	conns := build.Raw.Conns
	half := len(conns) / 2

	// Daemon dir: full x509.log, ssl.log holding only the first half.
	dir := t.TempDir()
	if err := mtls.WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	sslPath := filepath.Join(dir, "ssl.log")
	f, err := os.Create(sslPath)
	if err != nil {
		t.Fatal(err)
	}
	w := zeek.NewSSLWriter(f)
	for i := range conns[:half] {
		if err := w.Write(&conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	quarantine := filepath.Join(t.TempDir(), "quarantine.log")
	o := testOptions(dir, testScale)
	o.quarantine = quarantine
	base, cancel, exit := startDaemon(t, o)
	defer func() {
		cancel()
		<-exit
	}()
	waitConns(t, base, uint64(half))

	// Mid-stream poison: a zero weight and a truncated row, then the
	// rest of the valid connections behind them.
	f, err = os.OpenFile(sslPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1654041600.000000\tPOISON\t10.0.0.1\t1234\t192.0.2.1\t443\tTLSv12\tbad.example\tT\t-\t-\t0\n" +
		"truncated\trow\n"); err != nil {
		t.Fatal(err)
	}
	w = zeek.NewSSLWriter(f)
	w.SkipHeader()
	for i := half; i < len(conns); i++ {
		if err := w.Write(&conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Every valid row lands despite the poison pills between them.
	st := waitConns(t, base, uint64(len(conns)))
	if st.RowsRejected != 2 {
		t.Fatalf("RowsRejected = %d, want 2", st.RowsRejected)
	}
	if st.RejectedByReason["ssl/"+string(zeek.RejectWeight)] != 1 ||
		st.RejectedByReason["ssl/"+string(zeek.RejectFieldCount)] != 1 {
		t.Fatalf("RejectedByReason = %v", st.RejectedByReason)
	}

	// The rejection counter is visible on /metrics, labeled by reason.
	code, metricsBody := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, line := range []string{
		`zeek_rows_rejected_total{file="ssl",reason="weight"} 1`,
		`zeek_rows_rejected_total{file="ssl",reason="field_count"} 1`,
	} {
		if !strings.Contains(metricsBody, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	// The quarantine file retains both raw rows for forensics.
	qraw, err := os.ReadFile(quarantine)
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !strings.Contains(string(qraw), "POISON") || !strings.Contains(string(qraw), string(zeek.RejectFieldCount)) {
		t.Fatalf("quarantine missing rejected rows:\n%s", qraw)
	}

	// Reports must equal a batch engine fed only the valid rows: the
	// malformed lines changed counters, never analysis results.
	in := mtls.InputFromBuild(campusBuild(t, testScale))
	in.Raw = nil
	ref, err := stream.New(stream.Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	xf, err := os.Open(filepath.Join(dir, "x509.log"))
	if err != nil {
		t.Fatal(err)
	}
	certs, err := zeek.ReadX509(xf)
	xf.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range certs {
		ref.IngestCert(&certs[i])
	}
	for i := range conns {
		ref.IngestConn(&conns[i])
	}
	ref.Drain()

	checkReportsAgainst(t, base, ref, "valid-rows batch reference")
}

// TestDaemonStrictQuarantineConflict: -strict with -quarantine is a
// configuration error (strict mode never skips rows), refused at boot.
func TestDaemonStrictQuarantineConflict(t *testing.T) {
	dir := writeTestLogs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := testOptions(dir, testScale)
	o.strict, o.quarantine = true, filepath.Join(t.TempDir(), "q.log")
	code := run(ctx, o, testLogger(t), nil)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (usage error)", code)
	}
}

// TestDaemonSIGTERMCheckpoint: a real SIGTERM shuts the daemon down
// cleanly (exit 0) and the final checkpoint lands, restorable with the
// tail offsets intact — the state-loss regression for the old
// log.Fatal shutdown path.
func TestDaemonSIGTERMCheckpoint(t *testing.T) {
	dir := writeTestLogs(t)
	ckpt := filepath.Join(t.TempDir(), "mtlsd.ckpt")
	o := testOptions(dir, testScale)
	o.checkpoint, o.ckptEvery = ckpt, time.Hour // periodic path stays quiet; only shutdown writes
	base, cancel, exit := startDaemon(t, o)
	defer cancel()
	waitIngested(t, base)

	// The daemon's signal.NotifyContext owns SIGTERM while running, so
	// signalling our own process exercises the real shutdown path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("final checkpoint empty")
	}
	in := mtls.InputFromBuild(campusBuild(t, testScale))
	in.Raw = nil
	restored, cursor, err := stream.Restore(stream.Config{Input: in}, ckpt)
	if err != nil {
		t.Fatalf("restore final checkpoint: %v", err)
	}
	defer restored.Close()
	if restored.Stats().ConnsIngested == 0 {
		t.Error("restored engine has no connections")
	}
	if cursor["ssl.log"] == 0 || cursor["x509.log"] == 0 {
		t.Errorf("cursor offsets not persisted: %v", cursor)
	}
}

// TestDaemonListenConflict: a busy port fails fast with a nonzero exit
// before any state is touched (the old path log.Fatal'd much later).
func TestDaemonListenConflict(t *testing.T) {
	dir := writeTestLogs(t)
	base, cancel, exit := startDaemon(t, testOptions(dir, testScale))
	defer func() {
		cancel()
		<-exit
	}()
	addr := strings.TrimPrefix(base, "http://")

	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	o := testOptions(dir, testScale)
	o.listen = addr
	code := run(ctx, o, testLogger(t), nil)
	if code == 0 {
		t.Fatal("second daemon on the same port must fail")
	}
}

// shardsIgnored counts the daemon's warnings that it ignores -shards.
func shardsIgnored(log string) int { return strings.Count(log, "-shards is ignored") }

// manifestChains reads the segment names of a committed checkpoint's
// chains off its MANIFEST.
func manifestChains(t *testing.T, dir string) [][]string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Chains [][]struct{ Name string } }
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	chains := make([][]string, len(man.Chains))
	for i, chain := range man.Chains {
		for _, sg := range chain {
			chains[i] = append(chains[i], sg.Name)
		}
	}
	return chains
}

// TestDaemonSharded: -shards is ignored, whatever it asks — 0 (one shard
// per CPU, once), 2, or 65 (above the 64 an earlier release refused). A
// run at any count but 1 warns exactly once, naming it, serves what one
// engine does and exits 0 when stopped; the restart, at the same count or
// another (a directory written "sharded" restarts "single", and the other
// way round), restores the first run's one chain and continues it.
func TestDaemonSharded(t *testing.T) {
	dir := writeTestLogs(t)
	build := campusBuild(t, testScale)
	total := uint64(len(build.Raw.Conns))
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	ref, err := stream.New(stream.Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, c := range build.Raw.Certs {
		ref.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range build.Raw.Conns {
		ref.IngestConn(&build.Raw.Conns[i])
	}
	ref.Drain()
	for _, c := range []struct {
		name          string
		first, second int
	}{{"shards=0", 0, 0}, {"shards=2-then-1", 2, 1}, {"shards=1-then-2", 1, 2}, {"shards=65", 65, 65}} {
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(dir, testScale)
			o.checkpoint, o.ckptEvery = filepath.Join(t.TempDir(), "ckpt"), time.Hour
			logs := restartOnto(t, o, total, c.first, c.second, func(base string) {
				checkReportsAgainst(t, base, ref, "one engine")
			})
			for run, shards := range []int{c.first, c.second} {
				want := 1
				if shards == 1 {
					want = 0
				}
				if n := shardsIgnored(logs[run]); n != want || (want == 1 && !strings.Contains(logs[run], fmt.Sprintf("shards=%d", shards))) {
					t.Errorf("run %d at -shards %d warned %d times that it ignores it, want %d naming it:\n%s", run, shards, n, want, logs[run])
				}
			}
		})
	}
}

// restartOnto runs the daemon twice over one -checkpoint, at -shards
// first and then second: each run tails the logs whole, serves one series
// per engine metric — no shard label, no stream_shards — and no shards
// field, passes check, and shuts down cleanly. -shards is ignored, so the
// restart restores the first run's chain and continues it in place — a
// fresh engine's first commit would have replaced it with a base — and
// serves every row once. It returns the two runs' logs.
func restartOnto(t *testing.T, o options, total uint64, first, second int, check func(base string)) (logs [2]string) {
	t.Helper()
	var before []string
	for run, shards := range []int{first, second} {
		var log strings.Builder
		o.shards = shards
		base, cancel, exit := startDaemonLogging(t, o, slog.New(slog.NewTextHandler(&log, nil)))
		if st := waitConns(t, base, total); st.ConnsIngested != total {
			t.Errorf("run %d at -shards %d serves %d connections, want %d", run, shards, st.ConnsIngested, total)
		}
		var v map[string]any
		if code, body := httpGet(t, base+"/api/v1/version"); code != 200 || json.Unmarshal([]byte(body), &v) != nil || v["shards"] != nil {
			t.Errorf("run %d: /api/v1/version = %d %s, want no shards field", run, code, body)
		}
		if code, body := httpGet(t, base+"/metrics"); code != 200 || !strings.Contains(body, "stream_conns_ingested_total ") ||
			strings.Contains(body, `shard="`) || strings.Contains(body, "stream_shards") {
			t.Errorf("run %d: /metrics = %d, want the engine's series without a per-shard one", run, code)
		}
		check(base)
		cancel()
		if code := <-exit; code != 0 {
			t.Fatalf("run %d at -shards %d: exit code %d\n%s", run, shards, code, log.String())
		}
		logs[run] = log.String()
		chains := manifestChains(t, o.checkpoint)
		if len(chains) != 1 {
			t.Fatalf("run %d at -shards %d left %d chains, want one", run, shards, len(chains))
		}
		if run == 1 && (len(chains[0]) <= len(before) || !reflect.DeepEqual(chains[0][:len(before)], before)) {
			t.Fatalf("the restart's chain %v does not continue the first run's %v", chains[0], before)
		}
		before = chains[0]
	}
	return logs
}

// listDir names a directory's entries with their sizes.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s:%d", ent.Name(), fi.Size()))
	}
	return out
}

// TestOpenEngineMissingNamedFile: a committed manifest that names a file
// which is gone is a damaged checkpoint. The restore used to hand back the
// *PathError wrapped, openEngine took its os.ErrNotExist for "no
// checkpoint yet", and the daemon started empty, re-tailed from byte 0 and
// swept the rest of the chain with its first commit.
func TestOpenEngineMissingNamedFile(t *testing.T) {
	build := campusBuild(t, testScale)
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	scfg := stream.Config{Input: in}
	path := filepath.Join(t.TempDir(), "ckpt")
	eng, cursor, err := openEngine(scfg, path)
	if err != nil || cursor != nil {
		t.Fatalf("an absent path must open a fresh engine: cursor %v, err %v", cursor, err)
	}
	eng.IngestConnBatch(build.Raw.Conns[:500])
	eng.Drain()
	for i := 1; i <= 2; i++ { // a base and a delta
		if err := eng.WriteCheckpoint(path, map[string]int64{"ssl.log": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.ckpt"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("%d segments on disk (%v), want 2", len(segs), err)
	}
	if err := os.Remove(segs[len(segs)-1]); err != nil {
		t.Fatal(err)
	}
	eng, _, err = openEngine(scfg, path)
	if err == nil {
		eng.Close()
		t.Fatal("a manifest naming a missing segment opened an engine")
	}
	if !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("err = %v, want store.ErrCorrupt", err)
	}
	// A directory with no commit file is still "no checkpoint yet".
	if err := os.Remove(filepath.Join(path, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	eng, cursor, err = openEngine(scfg, path)
	if err != nil || cursor != nil {
		t.Fatalf("a directory without a manifest must open a fresh engine: cursor %v, err %v", cursor, err)
	}
	eng.Close()
}

// TestOpenEngineRetiredCheckpoint: a directory committed by manifest.json
// holds no MANIFEST, which is what "no checkpoint yet" looks like too, and
// a version-2 MANIFEST is one the previous release still read. Each is
// refused, naming the build that rewrites it, and left as it was: taken for
// an empty path, the daemon would start fresh, re-tail from byte 0 and
// sweep the old files with its first commit.
func TestOpenEngineRetiredCheckpoint(t *testing.T) {
	for _, c := range []struct {
		name, release string
		files         map[string]string
	}{
		{"manifest.json", "7a5e8ef", map[string]string{
			"manifest.json":   `{"Version":1,"Shards":1,"Files":["shard-0.g2.ckpt"]}`,
			"shard-0.g2.ckpt": "a shard's full state, as one gob",
		}},
		{"version 2", "d2d26b6", map[string]string{
			"MANIFEST":   `{"Version":2,"Gen":1,"NextSeg":2,"Chains":[[{"Name":"seg-1.ckpt","Bytes":18}]],"Router":{"NextSeq":1}}`,
			"seg-1.ckpt": "gob frames, unread",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt")
			if err := os.MkdirAll(path, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, body := range c.files {
				if err := os.WriteFile(filepath.Join(path, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := listDir(t, path)
			eng, cursor, err := openEngine(stream.Config{Input: &core.Input{}}, path)
			if err == nil {
				eng.Close()
				t.Fatalf("a retired directory opened an engine (cursor %v)", cursor)
			}
			if errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), c.release) {
				t.Fatalf("err = %v, want a refusal naming %s", err, c.release)
			}
			if after := listDir(t, path); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refusal changed the directory: %v → %v", before, after)
			}
		})
	}
}

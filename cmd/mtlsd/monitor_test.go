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
	"runtime"
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
	cfg := mtls.DefaultConfig()
	cfg.CertScale = testScale
	build := mtls.GenerateConfig(cfg)
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
	o := testOptions(dir, cfg)
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
	in := mtls.InputFromBuild(mtls.GenerateConfig(cfg))
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
	dir, cfg := writeTestLogs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := testOptions(dir, cfg)
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
	dir, cfg := writeTestLogs(t)
	ckpt := filepath.Join(t.TempDir(), "mtlsd.ckpt")
	o := testOptions(dir, cfg)
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
	in := mtls.InputFromBuild(mtls.GenerateConfig(cfg))
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
	dir, cfg := writeTestLogs(t)
	base, cancel, exit := startDaemon(t, testOptions(dir, cfg))
	defer func() {
		cancel()
		<-exit
	}()
	addr := strings.TrimPrefix(base, "http://")

	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	o := testOptions(dir, cfg)
	o.listen = addr
	code := run(ctx, o, testLogger(t), nil)
	if code == 0 {
		t.Fatal("second daemon on the same port must fail")
	}
}

// TestDaemonSharded drives mtlsd with -shards 2 end to end: every report
// must deep-equal a one-shard reference fed the same logs, /metrics
// must carry the per-shard labeled series, and SIGTERM must land a
// restorable manifest-committed checkpoint directory.
func TestDaemonSharded(t *testing.T) {
	dir, cfg := writeTestLogs(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	o := testOptions(dir, cfg)
	o.shards, o.checkpoint, o.ckptEvery = 2, ckptDir, time.Hour // only the shutdown checkpoint writes
	base, cancel, exit := startDaemon(t, o)
	defer cancel()

	build := mtls.GenerateConfig(cfg)
	waitConns(t, base, uint64(len(build.Raw.Conns)))

	// One-shard reference over the same dataset.
	in := mtls.InputFromBuild(mtls.GenerateConfig(cfg))
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

	checkReportsAgainst(t, base, ref, "one-shard reference")

	// Per-shard series are labeled; the router's gauges are live.
	code, metricsBody := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, series := range []string{
		`stream_conns_ingested_total{shard="0"}`,
		`stream_conns_ingested_total{shard="1"}`,
		`stream_buffer_occupancy{shard="0"}`,
		"stream_shards 2",
		"stream_certs_ingested_total ",
		"stream_store_hot_certs ",
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// SIGTERM → clean exit, committed manifest, restorable directory.
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
	if _, err := os.Stat(filepath.Join(ckptDir, "MANIFEST")); err != nil {
		t.Fatalf("checkpoint manifest missing: %v", err)
	}
	rin := mtls.InputFromBuild(mtls.GenerateConfig(cfg))
	rin.Raw = nil
	restoredEng, cursor, err := stream.RestoreSharded(stream.Config{Input: rin}, 2, ckptDir)
	if err != nil {
		t.Fatalf("restore sharded checkpoint: %v", err)
	}
	defer restoredEng.Close()
	if got := restoredEng.Stats().ConnsIngested; got != uint64(len(build.Raw.Conns)) {
		t.Errorf("restored ConnsIngested = %d, want %d", got, len(build.Raw.Conns))
	}
	if cursor["ssl.log"] == 0 || cursor["x509.log"] == 0 {
		t.Errorf("cursor offsets not persisted: %v", cursor)
	}
}

// TestDaemonCheckpointLayoutMismatch: a -checkpoint directory written at
// one shard count must stop a daemon started at another, with both counts
// in the refusal. Routing is a function of the count; the alternatives —
// starting empty and re-tailing the logs from byte 0, or restoring shards
// that own the wrong connections — are both silent corruption.
func TestDaemonCheckpointLayoutMismatch(t *testing.T) {
	dir, cfg := writeTestLogs(t)
	total := uint64(len(mtls.GenerateConfig(cfg).Raw.Conns))
	for _, c := range []struct {
		name          string
		first, second int
	}{
		{"sharded then single", 2, 1},
		{"single then sharded", 1, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(dir, cfg)
			o.checkpoint, o.ckptEvery = filepath.Join(t.TempDir(), "ckpt"), time.Hour
			o.shards = c.first
			base, cancel, exit := startDaemon(t, o)
			waitConns(t, base, total)
			cancel()
			if code := <-exit; code != 0 {
				t.Fatalf("first daemon exit code %d", code)
			}
			before := listDir(t, o.checkpoint)

			// A daemon that wrongly starts is stopped by the deadline and
			// exits 0; the refusal exits 1 long before it.
			ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			o.shards = c.second
			var log strings.Builder
			logger := slog.New(slog.NewTextHandler(&log, nil))
			if code := run(ctx, o, logger, nil); code != 1 {
				t.Fatalf("daemon at -shards %d over a -shards %d checkpoint: exit %d, want 1\n%s",
					c.second, c.first, code, log.String())
			}
			if want := fmt.Sprintf("checkpoint has %d shards, requested %d", c.first, c.second); !strings.Contains(log.String(), want) {
				t.Errorf("refusal does not say %q:\n%s", want, log.String())
			}
			if after := listDir(t, o.checkpoint); !reflect.DeepEqual(before, after) {
				t.Errorf("refused daemon changed the checkpoint directory: %v → %v", before, after)
			}
		})
	}
}

// TestDaemonPerCPUShardsRestart: -shards 0 on a host with more CPUs than
// the engine has shards to give runs MaxShards of them, says so on
// /api/v1/version, and restarts onto its own checkpoint. (The count used
// to be resolved twice: the engine clamped it, the daemon did not, and
// the restart refused the checkpoint as written at another count.)
func TestDaemonPerCPUShardsRestart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(stream.MaxShards + 1))
	dir, cfg := writeTestLogs(t)
	total := uint64(len(mtls.GenerateConfig(cfg).Raw.Conns))
	o := testOptions(dir, cfg)
	o.shards, o.checkpoint, o.ckptEvery = 0, filepath.Join(t.TempDir(), "ckpt"), time.Hour
	for _, start := range []string{"first start", "restart"} {
		base, cancel, exit := startDaemon(t, o)
		waitConns(t, base, total)
		var v versionInfo
		if code, body := httpGet(t, base+"/api/v1/version"); code != 200 || json.Unmarshal([]byte(body), &v) != nil || v.Shards != stream.MaxShards {
			t.Errorf("%s: /api/v1/version = %d %s, want %d shards", start, code, body, stream.MaxShards)
		}
		cancel()
		if code := <-exit; code != 0 {
			t.Fatalf("%s: exit code %d", start, code)
		}
	}
}

// TestDaemonTooManyShards: an explicit -shards above what the engine
// supports is a usage error, not a silently smaller deployment.
func TestDaemonTooManyShards(t *testing.T) {
	dir, cfg := writeTestLogs(t)
	o := testOptions(dir, cfg)
	o.shards = stream.MaxShards + 1
	var log strings.Builder
	if code := run(context.Background(), o, slog.New(slog.NewTextHandler(&log, nil)), nil); code != 2 {
		t.Fatalf("exit code %d, want 2 (usage error)\n%s", code, log.String())
	}
	if !strings.Contains(log.String(), "at most 64") {
		t.Errorf("the refusal does not name the bound:\n%s", log.String())
	}
	if _, err := stream.NewSharded(o.shards, stream.Config{Input: &core.Input{}}); err == nil {
		t.Error("NewSharded accepted more than MaxShards")
	}
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
// which is gone is a damaged checkpoint, at either kind of shard count.
// The restore used to hand back the *PathError wrapped, openEngine took
// its os.ErrNotExist for "no checkpoint yet", and the daemon started
// empty, re-tailed from byte 0 and swept the rest of the chain with its
// first commit.
func TestOpenEngineMissingNamedFile(t *testing.T) {
	cfg := mtls.DefaultConfig()
	cfg.CertScale = testScale
	build := mtls.GenerateConfig(cfg)
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	scfg := stream.Config{Input: in}
	for _, shards := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "ckpt")
		eng, cursor, err := openEngine(scfg, shards, path)
		if err != nil || cursor != nil {
			t.Fatalf("shards=%d: an absent path must open a fresh engine: cursor %v, err %v", shards, cursor, err)
		}
		eng.IngestConnBatch(build.Raw.Conns[:500])
		eng.Drain()
		for i := 1; i <= 2; i++ { // a base and a delta per chain
			if err := eng.WriteCheckpoint(path, map[string]int64{"ssl.log": int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		segs, err := filepath.Glob(filepath.Join(path, "seg-*.ckpt"))
		if err != nil || len(segs) != 2*shards {
			t.Fatalf("shards=%d: %d segments on disk (%v), want %d", shards, len(segs), err, 2*shards)
		}
		if err := os.Remove(segs[len(segs)-1]); err != nil {
			t.Fatal(err)
		}
		eng, _, err = openEngine(scfg, shards, path)
		if err == nil {
			eng.Close()
			t.Fatalf("shards=%d: a manifest naming a missing segment opened an engine", shards)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("shards=%d: err = %v, want store.ErrCorrupt", shards, err)
		}
		// A directory with no commit file is still "no checkpoint yet".
		if err := os.Remove(filepath.Join(path, "MANIFEST")); err != nil {
			t.Fatal(err)
		}
		eng, cursor, err = openEngine(scfg, shards, path)
		if err != nil || cursor != nil {
			t.Fatalf("shards=%d: a directory without a manifest must open a fresh engine: cursor %v, err %v", shards, cursor, err)
		}
		eng.Close()
	}
}

// TestOpenEngineRetiredCheckpoint: a directory committed by manifest.json
// holds no MANIFEST, which is what "no checkpoint yet" looks like too. It is
// refused, naming the build that rewrites it, and left as it was: taken for
// an empty path, the daemon would start fresh, re-tail from byte 0 and
// sweep the shard files with its first commit.
func TestOpenEngineRetiredCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"manifest.json":   `{"Version":1,"Shards":1,"Files":["shard-0.g2.ckpt"]}`,
		"shard-0.g2.ckpt": "a shard's full state, as one gob",
	} {
		if err := os.WriteFile(filepath.Join(path, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := listDir(t, path)
	eng, cursor, err := openEngine(stream.Config{Input: &core.Input{}}, 1, path)
	if err == nil {
		eng.Close()
		t.Fatalf("a manifest.json directory opened an engine (cursor %v)", cursor)
	}
	if errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "7a5e8ef") {
		t.Fatalf("err = %v, want a refusal naming 7a5e8ef", err)
	}
	if after := listDir(t, path); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refusal changed the directory: %v → %v", before, after)
	}
}

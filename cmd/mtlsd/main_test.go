package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/stream"
)

// testScale keeps the generated dataset small enough for fast e2e runs.
const testScale = 2000

// campusBuild generates the campus dataset at scale.
func campusBuild(t *testing.T, scale int) *mtls.Build {
	t.Helper()
	build, err := mtls.Generate(nil, mtls.WithScale(scale))
	if err != nil {
		t.Fatal(err)
	}
	return build
}

func writeTestLogs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := mtls.WriteLogs(campusBuild(t, testScale).Raw, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkCatalogued fails on every metric family in a /metrics scrape
// that DESIGN.md's catalogue does not name.
func checkCatalogued(t *testing.T, scrape string) {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(scrape, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" &&
			!regexp.MustCompile(`\b`+regexp.QuoteMeta(f[2])+`\b`).Match(design) {
			t.Errorf("metric family %s is not in DESIGN.md", f[2])
		}
	}
}

// testOptions is the command line's defaults pointed at dir on an
// ephemeral port, polling fast, with the context scale the logs were
// generated at.
func testOptions(dir string, scale int) options {
	o := defaultOptions()
	o.logs, o.listen, o.poll, o.scale = dir, "127.0.0.1:0", 50*time.Millisecond, scale
	return o
}

// TestFlagDefaults: parsing an empty command line, as main does, yields
// exactly defaultOptions() — no flag registers a default of its own — so
// tests built on testOptions run what an operator runs. (Tests used to
// build options{} literals: shards 0 meant one per CPU there and 1 on
// the command line, and the suite failed on any multi-core host.)
func TestFlagDefaults(t *testing.T) {
	o := defaultOptions()
	fs := flag.NewFlagSet("mtlsd", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o != defaultOptions() {
		t.Errorf("zero-arg parse = %+v, want defaultOptions() = %+v", o, defaultOptions())
	}
	if o.shards != 1 || o.role != "monitor" {
		t.Errorf("defaults drifted: shards=%d role=%q", o.shards, o.role)
	}
}

func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its base URL plus a cancel that triggers a clean shutdown and
// a channel carrying run's exit code.
func startDaemon(t *testing.T, o options) (base string, cancel context.CancelFunc, exit chan int) {
	t.Helper()
	return startDaemonLogging(t, o, testLogger(t))
}

// startDaemonLogging is startDaemon logging to logger.
func startDaemonLogging(t *testing.T, o options, logger *slog.Logger) (base string, cancel context.CancelFunc, exit chan int) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	readyCh := make(chan string, 1)
	exit = make(chan int, 1)
	go func() {
		exit <- run(ctx, o, logger, func(addr string) { readyCh <- addr })
	}()
	select {
	case addr := <-readyCh:
		return "http://" + addr, cancelCtx, exit
	case code := <-exit:
		cancelCtx()
		t.Fatalf("daemon exited before ready: code %d", code)
		return "", nil, nil
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

// httpGetFull returns status, body, and headers for equivalence checks.
func httpGetFull(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body), res.Header
}

// waitIngested polls /api/v1/stats until the engine has applied connections.
func waitIngested(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := httpGet(t, base+"/api/v1/stats")
		if code == http.StatusOK {
			var st stream.Stats
			if err := json.Unmarshal([]byte(body), &st); err == nil && st.ConnsIngested > 0 {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never ingested connections")
}

// waitConns polls /api/v1/stats until exactly want connection events have been
// applied.
func waitConns(t *testing.T, base string, want uint64) daemonStats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st daemonStats
	for time.Now().Before(deadline) {
		code, body := httpGet(t, base+"/api/v1/stats")
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &st); err == nil && st.ConnsIngested >= want {
				return st
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon never reached %d ingested connections (last: %d)", want, st.ConnsIngested)
	return st
}

// checkReportsAgainst requires every report the daemon at base serves to
// equal, as decoded JSON, what the reference engine materializes.
func checkReportsAgainst(t *testing.T, base string, ref *stream.Engine, what string) {
	t.Helper()
	got := fetchReports(t, base)
	for _, name := range stream.ReportNames() {
		out, err := ref.Report(name)
		if err != nil {
			t.Fatalf("reference report %s: %v", name, err)
		}
		buf, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("report %s diverged from %s", name, what)
		}
	}
}

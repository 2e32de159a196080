package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// appendConns appends ssl.log rows, no header, to the log at path.
func appendConns(t *testing.T, path string, recs []zeek.SSLRecord) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := zeek.NewSSLWriter(f)
	w.SkipHeader()
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// wakeLogs writes the test dataset's logs to a fresh directory; the
// caller rewrites ssl.log with the rows it starts from.
func wakeLogs(t *testing.T) (dir string, build *mtls.Build) {
	t.Helper()
	build = campusBuild(t, testScale)
	dir = t.TempDir()
	if err := mtls.WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	return dir, build
}

// waitConnsWithin is waitConns with a deadline of its own: the daemon
// must show exactly want connections within d.
func waitConnsWithin(t *testing.T, base string, want uint64, d time.Duration) {
	t.Helper()
	start := time.Now()
	var got uint64
	for time.Since(start) < d {
		var st daemonStats
		if code, body := httpGet(t, base+"/api/v1/stats"); code == 200 && json.Unmarshal([]byte(body), &st) == nil {
			if got = st.ConnsIngested; got >= want {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got != want {
		t.Fatalf("after %v the daemon shows %d connections, want %d", time.Since(start).Round(time.Millisecond), got, want)
	}
}

// wakes reads the daemon's tail_wakes_total series off /metrics.
func wakes(t *testing.T, base string) (event, tick int) {
	t.Helper()
	_, body := httpGet(t, base+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		fmt.Sscanf(line, `tail_wakes_total{reason="event"} %d`, &event)
		fmt.Sscanf(line, `tail_wakes_total{reason="tick"} %d`, &tick)
	}
	return event, tick
}

// TestDaemonWakesOnAppend: at a -poll of an hour only a file event can
// bring in a row appended after the first catch-up, and it must, at once.
func TestDaemonWakesOnAppend(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("file events are Linux-only; elsewhere the tailer waits out -poll")
	}
	dir, build := wakeLogs(t)
	conns := build.Raw.Conns
	half := len(conns) / 2
	writeConnSlice(t, dir, build, 0, half)
	o := testOptions(dir, testScale)
	o.poll = time.Hour
	base, cancel, exit := startDaemon(t, o)
	defer func() {
		cancel()
		<-exit
	}()
	waitConns(t, base, uint64(half))

	appendConns(t, filepath.Join(dir, "ssl.log"), conns[half:])
	waitConnsWithin(t, base, uint64(len(conns)), 2*time.Second)
	if event, tick := wakes(t, base); event == 0 || tick != 0 {
		t.Errorf("tail_wakes_total event=%d tick=%d, want event > 0 and no tick in an hour", event, tick)
	}
}

// TestDaemonWakesAcrossRename: rows appended to ssl.log and renamed away
// with it, unquiesced, and the rows of the file recreated in its place
// are all ingested once each, in order, at a -poll of an hour: the
// daemon serves the reports of an engine fed every row in log order.
func TestDaemonWakesAcrossRename(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("file events are Linux-only; elsewhere the tailer waits out -poll")
	}
	dir, build := wakeLogs(t)
	conns := build.Raw.Conns
	third := len(conns) / 3
	writeConnSlice(t, dir, build, 0, third)
	o := testOptions(dir, testScale)
	o.poll = time.Hour
	base, cancel, exit := startDaemon(t, o)
	defer func() {
		cancel()
		<-exit
	}()
	waitConns(t, base, uint64(third))

	sslPath := filepath.Join(dir, "ssl.log")
	appendConns(t, sslPath, conns[third:2*third])
	if err := os.Rename(sslPath, sslPath+".1"); err != nil {
		t.Fatal(err)
	}
	writeConnSlice(t, dir, build, 2*third, len(conns))
	waitConnsWithin(t, base, uint64(len(conns)), 2*time.Second)

	in := mtls.InputFromBuild(campusBuild(t, testScale))
	in.Raw = nil
	ref, err := stream.New(stream.Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, c := range build.Raw.Certs {
		ref.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range conns {
		ref.IngestConn(&conns[i])
	}
	ref.Drain()
	checkReportsAgainst(t, base, ref, "an engine fed both files in order")
	if st := waitConns(t, base, uint64(len(conns))); st.ConnsIngested != uint64(len(conns)) {
		t.Errorf("ConnsIngested = %d after the reads, want %d (a row read twice)", st.ConnsIngested, len(conns))
	}
}

// TestDaemonTicksWithoutWatch: a tailer whose watch cannot be set up, or
// is lost, says so once, naming the directory and the reason, and keeps
// ingesting at -poll.
func TestDaemonTicksWithoutWatch(t *testing.T) {
	for _, c := range []struct {
		name  string
		watch func(string, ...string) (*logWatch, error)
	}{
		{"unavailable", func(string, ...string) (*logWatch, error) {
			return nil, errors.New("watch forced off")
		}},
		{"lost", func(string, ...string) (*logWatch, error) {
			w := &logWatch{C: make(chan struct{}), err: errors.New("watch forced off")}
			close(w.C)
			return w, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, build := wakeLogs(t)
			conns := build.Raw.Conns
			half := len(conns) / 2
			writeConnSlice(t, dir, build, 0, half)
			o := testOptions(dir, testScale)
			in, err := contextInput(o)
			if err != nil {
				t.Fatal(err)
			}
			var log strings.Builder
			reg := metrics.New()
			m := newMonitor(o, slog.New(slog.NewTextHandler(&log, nil)), reg, zeek.Options{})
			m.watch = c.watch
			if m.eng, err = stream.New(stream.Config{Input: in, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			defer m.eng.Close()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.run(ctx)
			}()
			defer func() {
				cancel()
				<-done
			}()
			waitApplied := func(want int) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for m.eng.Stats().ConnsIngested < uint64(want) && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if got := m.eng.Stats().ConnsIngested; got != uint64(want) {
					t.Fatalf("engine shows %d connections, want %d", got, want)
				}
			}
			waitApplied(half)
			appendConns(t, filepath.Join(dir, "ssl.log"), conns[half:])
			waitApplied(len(conns))
			cancel()
			<-done

			if n := reg.Counter("tail_wakes_total", "", "reason", "event").Value(); n != 0 {
				t.Errorf(`tail_wakes_total{reason="event"} = %d, want 0`, n)
			}
			if n := reg.Counter("tail_wakes_total", "", "reason", "tick").Value(); n == 0 {
				t.Error(`tail_wakes_total{reason="tick"} = 0: the rows came in without a tick`)
			}
			out := log.String()
			if n := strings.Count(out, "no file events"); n != 1 ||
				!strings.Contains(out, "dir="+dir) || !strings.Contains(out, "watch forced off") {
				t.Errorf("want one warning naming %s and the reason, got %d:\n%s", dir, n, out)
			}
		})
	}
}

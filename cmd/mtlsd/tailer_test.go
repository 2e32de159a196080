package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/backoff"
	"repro/internal/zeek"
)

// TestCatchUpInterleaves pins the tailer-starvation fix: with a writer
// keeping x509.log hot (every poll stops at its chunk cap), the old
// per-tick until-empty loop never reached the ssl.log poll, so its lag
// grew without bound. catchUp must poll both logs every round and stop at
// the round cap rather than chase a hot file forever.
func TestCatchUpInterleaves(t *testing.T) {
	var x509Polls, sslPolls int
	noFail := func(err error, wait time.Duration) { t.Fatalf("unexpected failure: %v", err) }
	srcs := []*tailSource{
		// Hot forever: a writer appending at least as fast as we drain.
		{bo: backoff.New(time.Millisecond), fail: noFail,
			poll: func() (int, bool, error) { x509Polls++; return 10, true, nil }},
		{bo: backoff.New(time.Millisecond), fail: noFail,
			poll: func() (int, bool, error) { sslPolls++; return 1, true, nil }},
	}
	counts, behind := catchUp(context.Background(), catchUpRounds, srcs)
	if x509Polls != catchUpRounds {
		t.Errorf("x509 polls = %d, want the round cap %d", x509Polls, catchUpRounds)
	}
	if sslPolls != catchUpRounds {
		t.Errorf("ssl polls = %d, want %d (one per round; the old code starved this to 0)",
			sslPolls, catchUpRounds)
	}
	if counts[0] != 10*catchUpRounds || counts[1] != catchUpRounds {
		t.Errorf("counts = %v, want [%d %d]", counts, 10*catchUpRounds, catchUpRounds)
	}
	if !behind {
		t.Error("a wake ended by the round cap must report the logs behind")
	}
}

// TestCatchUpDrains: a round follows only while some source stopped at
// its chunk cap. Once every source read to the end of what was written in
// the same round, the wake ends — with no extra round of polls that can
// only find nothing new.
func TestCatchUpDrains(t *testing.T) {
	backlog := []int{3, 1} // chunks until drained, per source
	var polls [2]int
	noFail := func(err error, wait time.Duration) { t.Fatalf("unexpected failure: %v", err) }
	mk := func(i int) *tailSource {
		return &tailSource{bo: backoff.New(time.Millisecond), fail: noFail,
			poll: func() (int, bool, error) {
				polls[i]++
				if polls[i] <= backlog[i] {
					return 5, polls[i] < backlog[i], nil
				}
				return 0, false, nil
			}}
	}
	counts, behind := catchUp(context.Background(), catchUpRounds, []*tailSource{mk(0), mk(1)})
	if counts[0] != 15 || counts[1] != 5 || behind {
		t.Errorf("counts = %v, behind %v, want [15 5], false", counts, behind)
	}
	// The longer backlog dictates the rounds: 2 stopped at the cap, the
	// third read to the end.
	if polls[0] != 3 || polls[1] != 3 {
		t.Errorf("polls = %v, want [3 3] (stop on the first round no source stopped at its cap)", polls)
	}
}

// TestCatchUpBackoff: a failing source earns a backoff and is skipped
// while it waits; the healthy source keeps draining.
func TestCatchUpBackoff(t *testing.T) {
	var failPolls, okPolls, fails int
	boom := errors.New("disk on fire")
	srcs := []*tailSource{
		{bo: backoff.New(time.Minute),
			poll: func() (int, bool, error) { failPolls++; return 0, false, boom },
			fail: func(err error, wait time.Duration) {
				fails++
				if !errors.Is(err, boom) || wait <= 0 {
					t.Errorf("fail(%v, %v)", err, wait)
				}
			}},
		{bo: backoff.New(time.Minute), fail: func(err error, wait time.Duration) { t.Fatal(err) },
			poll: func() (int, bool, error) {
				okPolls++
				return 2, okPolls < 5, nil
			}},
	}
	counts, _ := catchUp(context.Background(), catchUpRounds, srcs)
	if failPolls != 1 || fails != 1 {
		t.Errorf("failing source polled %d times (failures %d), want 1 (backed off)", failPolls, fails)
	}
	if counts[1] != 10 {
		t.Errorf("healthy source count = %d, want 10", counts[1])
	}
}

// TestDaemonConcurrentWriters is the end-to-end companion to the
// starvation fix: two writers appending to ssl.log and x509.log at the
// same time, with the daemon tailing both. Every row from both files
// must land, and the lag on both files must drain to zero.
func TestDaemonConcurrentWriters(t *testing.T) {
	build := campusBuild(t, testScale)
	conns := build.Raw.Conns

	// Full logs in a scratch dir give us the certificate rows to replay.
	scratch := t.TempDir()
	if err := mtls.WriteLogs(build.Raw, scratch); err != nil {
		t.Fatal(err)
	}
	xf, err := os.Open(filepath.Join(scratch, "x509.log"))
	if err != nil {
		t.Fatal(err)
	}
	certs, err := zeek.ReadX509(xf)
	xf.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The daemon's dir starts with the first half of each log.
	dir := t.TempDir()
	sslPath := filepath.Join(dir, "ssl.log")
	x509Path := filepath.Join(dir, "x509.log")
	halfC, halfX := len(conns)/2, len(certs)/2
	writeSSL := func(path string, recs []zeek.SSLRecord, appendTo bool) {
		t.Helper()
		flags := os.O_CREATE | os.O_WRONLY
		if appendTo {
			flags |= os.O_APPEND
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w := zeek.NewSSLWriter(f)
		if appendTo {
			w.SkipHeader()
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeX509 := func(path string, recs []zeek.X509Record, appendTo bool) {
		t.Helper()
		flags := os.O_CREATE | os.O_WRONLY
		if appendTo {
			flags |= os.O_APPEND
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w := zeek.NewX509Writer(f)
		if appendTo {
			w.SkipHeader()
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeSSL(sslPath, conns[:halfC], false)
	writeX509(x509Path, certs[:halfX], false)

	o := testOptions(dir, testScale)
	o.poll = 10 * time.Millisecond
	base, cancel, exit := startDaemon(t, o)
	defer func() {
		cancel()
		<-exit
	}()
	waitConns(t, base, uint64(halfC))

	// Both second halves stream in concurrently, in small flushed slices.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for lo := halfC; lo < len(conns); lo += 64 {
			writeSSL(sslPath, conns[lo:min(lo+64, len(conns))], true)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for lo := halfX; lo < len(certs); lo += 64 {
			writeX509(x509Path, certs[lo:min(lo+64, len(certs))], true)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	st := waitConns(t, base, uint64(len(conns)))
	if st.CertsIngested != uint64(len(certs)) {
		t.Errorf("CertsIngested = %d, want %d", st.CertsIngested, len(certs))
	}

	// Lag on both files drains to zero once the writers stop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ds daemonStats
		_, body := httpGet(t, base+"/api/v1/stats")
		if err := json.Unmarshal([]byte(body), &ds); err != nil {
			t.Fatal(err)
		}
		if ds.TailLag["ssl"] == 0 && ds.TailLag["x509"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail lag never drained: %v", ds.TailLag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

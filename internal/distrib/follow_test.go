package distrib

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interception"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/workload"
)

// newAggEvery is newAgg at the given Interval: a followed sensor's
// heartbeat and the reconnect pacing.
func newAggEvery(t *testing.T, b *workload.Build, reg *metrics.Registry, every time.Duration, urls ...string) *Aggregator {
	t.Helper()
	a, err := NewAggregator(Config{Input: inputFromBuild(b), Sensors: urls, Interval: every, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runAgg runs a's follow loops until the test ends.
func runAgg(t *testing.T, a *Aggregator) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// syncer is how a test brings a current with its sensors' engines, given
// in sensor order: one SyncAll, or — followed — a's Run in the background
// and a wait until every sensor's cursor and epoch are its engine's.
func syncer(t *testing.T, a *Aggregator, followed bool) func(engines ...*stream.Engine) {
	t.Helper()
	if !followed {
		return func(engines ...*stream.Engine) {
			t.Helper()
			for _, e := range engines {
				e.Drain()
			}
			if err := a.SyncAll(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAgg(t, a)
	return func(engines ...*stream.Engine) {
		t.Helper()
		want := make([]*stream.ExportState, len(engines))
		for i, e := range engines {
			e.Drain()
			st, err := e.Export(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = st
		}
		waitFor(t, 30*time.Second, "the followed sensors' cursors", func() bool {
			for i, s := range a.SensorStatuses() {
				if s.Cursor != want[i].NextSeq || s.Epoch != want[i].Epoch {
					return false
				}
			}
			return true
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAggregatorFollowWakes: at an Interval of an hour — no heartbeat, no
// reconnect in the test's lifetime — rows a sensor ingests after the
// first sync reach the aggregator's Stats within two seconds, over the
// one followed stream, and the merge equals batch over everything.
func TestAggregatorFollowWakes(t *testing.T) {
	b := genBuild(7, 1200)
	certs := certList(b)
	half := len(b.Raw.Conns) / 2
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certs, 0, len(certs)/2, 0, half)
	e.Drain()
	a := newAgg(t, b, nil, newSensorServer(t, e).URL)
	runAgg(t, a)
	waitFor(t, 30*time.Second, "the first sync", func() bool { return a.Stats().ConnsIngested == uint64(half) })

	feedSlice(t, e, b, certs, len(certs)/2, len(certs), half, len(b.Raw.Conns))
	start := time.Now()
	waitFor(t, 2*time.Second, "rows fed after the first sync", func() bool {
		return a.Stats().ConnsIngested == uint64(len(b.Raw.Conns)) && a.Stats().UniqueCerts == len(certs)
	})
	t.Logf("the second half reached Stats %v after it was fed", time.Since(start))
	if s := a.SensorStatuses()[0]; s.Syncs < 2 || s.Errors != 0 {
		t.Errorf("sensor status %+v: want one clean stream of several syncs", s)
	}
	e.Drain()
	waitFor(t, 5*time.Second, "the last snapshot", func() bool {
		st, err := e.Export(0, 0)
		return err == nil && a.SensorStatuses()[0].Cursor == st.NextSeq
	})
	if got, want := analysisJSON(t, a.Analysis()), analysisJSON(t, core.Run(inputFromBuild(b))); got != want {
		t.Error("the followed aggregator differs from batch over the whole build")
	}
}

// pairSet is an evidence's pairs as a set.
func pairSet(ev *interception.Evidence) map[interception.Pair]bool {
	out := map[interception.Pair]bool{}
	if ev != nil {
		for _, p := range ev.Pairs() {
			out[p] = true
		}
	}
	return out
}

// TestFollowEvidenceIsDelta reads one followed stream off the wire: its
// first snapshot carries the whole evidence, each later one only pairs no
// earlier snapshot on the stream carried — together exactly the sensor's
// evidence — and an idle heartbeat carries no record and no pair.
func TestFollowEvidenceIsDelta(t *testing.T) {
	b := genBuild(20240504, 1200)
	certs := certList(b)
	half := len(b.Raw.Conns) / 2
	e := newSensorEngine(t, b)
	e.IngestConnBatch(b.Raw.Conns[:half])
	feedSlice(t, e, b, certs, 0, len(certs)/2, 0, 0)
	e.Drain()
	srv := newSensorServer(t, e)

	resp, err := http.Get(srv.URL + "/api/v1/snapshot?schema=2&follow=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	first, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := e.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := pairSet(first.Evidence)
	if len(held) == 0 || len(held) != len(pairSet(whole.Evidence)) || first.Since != 0 {
		t.Fatalf("first snapshot: since %d, %d pairs; the sensor holds %d", first.Since, len(held), len(pairSet(whole.Evidence)))
	}

	e.IngestConnBatch(b.Raw.Conns[half:])
	feedSlice(t, e, b, certs, len(certs)/2, len(certs), 0, 0)
	e.Drain()
	whole, err = e.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cursor, deltas := first.NextSeq, 0
	for cursor < whole.NextSeq {
		snap, err := Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Since != cursor {
			t.Fatalf("snapshot answers since %d, the one before left %d", snap.Since, cursor)
		}
		for p := range pairSet(snap.Evidence) {
			if held[p] {
				t.Fatalf("a later snapshot re-ships pair %+v", p)
			}
			held[p] = true
			deltas++
		}
		cursor = snap.NextSeq
	}
	if deltas == 0 {
		t.Fatal("vacuous: the second half brought no new pair")
	}
	if want := pairSet(whole.Evidence); len(held) != len(want) {
		t.Fatalf("the stream carried %d pairs, the sensor holds %d", len(held), len(want))
	}
	beat, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if beat.Since != cursor || beat.NextSeq != cursor || len(beat.Certs)+len(beat.Conns) != 0 || len(pairSet(beat.Evidence)) != 0 {
		t.Fatalf("idle heartbeat: since %d next %d, %d certs, %d conns, %d pairs; want an empty snapshot at %d",
			beat.Since, beat.NextSeq, len(beat.Certs), len(beat.Conns), len(pairSet(beat.Evidence)), cursor)
	}
	if beat.Evidence == nil || beat.Evidence.Pending != whole.Evidence.Pending {
		t.Fatalf("idle heartbeat lost the parked count %d", whole.Evidence.Pending)
	}
}

// TestAggregatorIdleDeadline: a sensor that accepts the pull and then
// never answers — before its headers, or after the first bytes of a body
// — fails the sync within two heartbeats plus the grace, with the error
// recorded and the backoff started, instead of blocking the loop forever.
func TestAggregatorIdleDeadline(t *testing.T) {
	b := genBuild(7, 200)
	const every = 50 * time.Millisecond
	for name, handler := range map[string]http.HandlerFunc{
		"silent": func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() },
		"stalled body": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, magic)
			http.NewResponseController(w).Flush()
			<-r.Context().Done()
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(handler)
			t.Cleanup(srv.Close)
			a := newAggEvery(t, b, nil, every, srv.URL)
			start := time.Now()
			err := a.SyncAll(context.Background())
			took := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), "nothing arrived") {
				t.Fatalf("err = %v, want the idle deadline's", err)
			}
			if limit := 2*every + idleGrace + time.Second; took > limit {
				t.Errorf("the pull failed after %v, past %v", took, limit)
			}
			s := a.SensorStatuses()[0]
			if s.Errors != 1 || s.Syncs != 0 || !strings.Contains(s.LastError, "nothing arrived") {
				t.Errorf("sensor status %+v: want one recorded failure", s)
			}
			a.mu.Lock()
			backedOff := !a.sensors[0].bo.Ready(time.Now())
			a.mu.Unlock()
			if !backedOff {
				t.Error("no backoff after the idle failure")
			}
		})
	}
}

// TestAggregatorPollsParentSensor: a sensor of the previous release
// answers every request with one snapshot, follow or not. In a fleet with
// one of this release's sensors, the aggregator converges to the 23
// reports of one engine over the union, pulls the old sensor at most twice
// per Interval (it does not hot-loop on bodies that end), and holds one
// stream open to the new one throughout.
func TestAggregatorPollsParentSensor(t *testing.T) {
	b := genBuild(20240504, 1200)
	certs := certList(b)
	conns := len(b.Raw.Conns)
	union := newSensorEngine(t, b)
	feedSlice(t, union, b, certs, 0, len(certs), 0, conns)
	union.Drain()
	want := reportsJSON(t, union)

	old, cur := newSensorEngine(t, b), newSensorEngine(t, b)
	feedSlice(t, old, b, certs, 0, len(certs), 0, conns/4)
	feedSlice(t, cur, b, certs, 0, len(certs), conns/2, 3*conns/4)
	var oldPulls, curPulls atomic.Int64
	// The previous release's sensor ignores follow; the rest of its
	// response is this release's unfollowed one, byte for byte
	// (TestParentSchemaV2Bodies).
	oldSensor := NewSensor(old, nil, nil).Handler()
	oldSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		oldPulls.Add(1)
		q := r.URL.Query()
		q.Del("follow")
		r.URL.RawQuery = q.Encode()
		oldSensor(w, r)
	}))
	t.Cleanup(oldSrv.Close)
	curSensor := NewSensor(cur, nil, nil).Handler()
	curSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		curPulls.Add(1)
		curSensor(w, r)
	}))
	t.Cleanup(curSrv.Close)

	const every = 100 * time.Millisecond
	a := newAggEvery(t, b, nil, every, oldSrv.URL, curSrv.URL)
	start := time.Now()
	catchUp := syncer(t, a, true)
	catchUp(old, cur)
	feedSlice(t, old, b, certs, 0, 0, conns/4, conns/2)
	feedSlice(t, cur, b, certs, 0, 0, 3*conns/4, conns)
	catchUp(old, cur)
	// Read together: the aggregator keeps pulling while the reports below
	// are materialized.
	oldN, curN, elapsed := oldPulls.Load(), curPulls.Load(), time.Since(start)

	got := reportsJSON(t, a)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("report %s of the fleet differs from one engine over the union", name)
		}
	}
	if limit := 2 * (int64(elapsed/every) + 1); oldN > limit {
		t.Errorf("%d pulls of the old sensor in %v, more than twice per %v", oldN, elapsed, every)
	}
	if curN != 1 {
		t.Errorf("%d requests to this release's sensor, want its one followed stream", curN)
	}
	for i, s := range a.SensorStatuses() {
		if s.Errors != 0 || s.FullResyncs != 0 {
			t.Errorf("sensor %d: %+v", i, s)
		}
	}
	t.Logf("%v: %d pulls of the old sensor, %d of the new", elapsed, oldN, curN)
}

// TestFollowStreamEndsOnClose: Close ends a followed stream at a snapshot
// boundary — every snapshot on it decodes whole, and the body then ends —
// and the gauge counts the stream while it is open.
func TestFollowStreamEndsOnClose(t *testing.T) {
	b := genBuild(7, 200)
	e := newSensorEngine(t, b)
	feedSlice(t, e, b, certList(b), 0, len(b.Raw.Certs), 0, len(b.Raw.Conns))
	e.Drain()
	reg := metrics.New()
	sensor := NewSensor(e, reg, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/snapshot", sensor.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/api/v1/snapshot?follow=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ { // the snapshot and two heartbeats
		if _, err := Decode(body); err != nil {
			t.Fatal(err)
		}
	}
	streams := reg.Gauge("distrib_follow_streams", "")
	if got := streams.Value(); got != 1 {
		t.Fatalf("distrib_follow_streams = %v with one stream open", got)
	}
	sensor.Close()
	for {
		if _, err := Decode(body); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("the stream ended mid-snapshot: %v", err)
			}
			break
		}
	}
	waitFor(t, time.Second, "the gauge back at 0", func() bool { return streams.Value() == 0 })
}

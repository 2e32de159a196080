package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The bodies under testdata/parent are snapshots as the previous release's
// sensor served them (commit 7a5e8ef; internal/stream/testdata/parent/
// README.md has the writer): a full snapshot and the delta from its
// cursor, each beside the export it was encoded from.

// parentBody reads one parent-written body and the export its writer
// encoded.
func parentBody(t *testing.T, kind string) ([]byte, *stream.ExportState) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", "parent", kind+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "parent", kind+".export.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows rowExport
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	return body, rows.columns()
}

// rowExport is an ExportState in the row layout the parent's
// *.export.json fixtures and the retired schema 1's frames hold: each
// record beside its sequence.
type rowExport struct {
	stream.ExportState
	Certs []certRow
	Conns []connRow
}

type certRow struct {
	Seq  uint64
	Cert *certmodel.CertInfo
}

type connRow struct {
	Seq  uint64
	Conn core.ConnRecord
}

// columns is r in the engine's layout.
func (r *rowExport) columns() *stream.ExportState {
	st := r.ExportState
	for _, c := range r.Certs {
		st.Certs, st.CertSeqs = append(st.Certs, c.Cert), append(st.CertSeqs, c.Seq)
	}
	for _, c := range r.Conns {
		st.Conns, st.ConnSeqs = append(st.Conns, c.Conn), append(st.ConnSeqs, c.Seq)
	}
	return &st
}

// rowsOf is st in the row layout.
func rowsOf(st *stream.ExportState) *rowExport {
	r := &rowExport{ExportState: *st}
	for i, c := range st.Certs {
		r.Certs = append(r.Certs, certRow{st.CertSeqs[i], c})
	}
	for i := range st.Conns {
		r.Conns = append(r.Conns, connRow{st.ConnSeqs[i], st.Conns[i]})
	}
	return r
}

// fixedExporter serves one recorded export, whatever the cursor, and
// never publishes.
type fixedExporter struct{ st *stream.ExportState }

func (f fixedExporter) ExportFrom(since, epoch uint64, pairs int) (*stream.ExportState, error) {
	return f.st, nil
}

func (f fixedExporter) NextPublish() <-chan struct{} { return nil }

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestParentSchemaV2Bodies: what the previous release put on the wire
// decodes to what its writer exported and encodes back to the same bytes,
// and this release's sensor serves those very bytes for the same export,
// whether the request names schema 2 or no schema.
func TestParentSchemaV2Bodies(t *testing.T) {
	for _, kind := range []string{"full", "delta"} {
		body, st := parentBody(t, kind)
		if (kind == "delta") != (st.Since > 0) || len(st.Conns) == 0 || len(st.Certs) == 0 || st.Retention == 0 ||
			st.Evidence.Pending == 0 || len(st.Evidence.Observed) == 0 {
			t.Fatalf("%s: fixture is vacuous: since %d, %d conns, %d certs, retention %v, %d parked",
				kind, st.Since, len(st.Conns), len(st.Certs), st.Retention, st.Evidence.Pending)
		}
		snap, err := Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(snap, FromExport(st)) {
			t.Fatalf("%s: the parent's body does not decode to what its writer exported", kind)
		}
		var again bytes.Buffer
		if err := Encode(&again, snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("%s: re-encoded as %d bytes that differ from the parent's %d", kind, again.Len(), len(body))
		}

		// A request without follow — the previous release's aggregator's —
		// is answered with one snapshot, the whole body.
		srv := newSensorServer(t, fixedExporter{st})
		for _, query := range []string{"?schema=2", ""} {
			if code, served := httpGet(t, srv.URL+"/api/v1/snapshot"+query); code != http.StatusOK || !bytes.Equal(served, body) {
				t.Fatalf("%s: snapshot%s: status %d, %d bytes; want the parent's %d bytes", kind, query, code, len(served), len(body))
			}
		}
		// A followed stream opens with the same bytes.
		resp, err := http.Get(srv.URL + "/api/v1/snapshot?schema=2&follow=3600000")
		if err != nil {
			t.Fatal(err)
		}
		first := make([]byte, len(body))
		_, err = io.ReadFull(resp.Body, first)
		resp.Body.Close()
		if err != nil || !bytes.Equal(first, body) {
			t.Fatalf("%s: a followed stream does not open with the parent's %d bytes (%v)", kind, len(body), err)
		}
	}
}

func reportsJSON(t *testing.T, m stream.Materializer) map[string]string {
	t.Helper()
	names := stream.ReportNames()
	if len(names) != 23 {
		t.Fatalf("%d reports registered, want 23", len(names))
	}
	out := map[string]string{}
	for _, name := range names {
		r, err := stream.MaterializeReport(m, name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(buf)
	}
	return out
}

// TestMixedReleaseFleet: an aggregator over two sensors, one of which
// answers every request under the retired schema 1. Each sync of that
// sensor is an error naming schema 1 and nothing of its body is merged,
// while the other sensor syncs as usual; once it answers under schema 2,
// the next sync takes it in whole and the fleet converges to the 23
// reports of one engine over the union. A sensor restart converges across
// releases in both directions.
func TestMixedReleaseFleet(t *testing.T) {
	b := genBuild(20240504, 1200)
	certs := certList(b)
	conns := len(b.Raw.Conns)
	union := newSensorEngine(t, b)
	feedSlice(t, union, b, certs, 0, len(certs), 0, conns)
	union.Drain()
	want := reportsJSON(t, union)

	old, cur := newSensorEngine(t, b), newSensorEngine(t, b)
	feedSlice(t, old, b, certs, 0, len(certs), 0, conns/2)
	feedSlice(t, cur, b, certs, 0, len(certs), conns/2, conns)
	old.Drain()
	cur.Drain()
	var upgraded atomic.Bool
	sensor := NewSensor(old, nil, nil).Handler()
	oldSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if upgraded.Load() {
			sensor(w, r)
			return
		}
		st, err := old.Export(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		w.Write(schema1Body(FromExport(st)))
	}))
	t.Cleanup(oldSrv.Close)

	a := newAgg(t, b, nil, oldSrv.URL, newSensorServer(t, cur).URL)
	for i := 0; i < 2; i++ {
		if err := a.SyncAll(context.Background()); !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), "schema 1") {
			t.Fatalf("sync %d of a sensor answering under schema 1: err = %v, want ErrSchema naming schema 1", i, err)
		}
	}
	st := a.SensorStatuses()
	if got := st[0]; got.Conns != 0 || got.Cursor != 0 || got.Syncs != 0 || got.Errors != 2 || got.Schema != 0 {
		t.Fatalf("a body of the wrong schema was merged: %+v", got)
	}
	if got := st[1]; got.Syncs != 2 || got.Schema != SchemaV2 {
		t.Fatalf("the sensor of this release: %d syncs under schema %d, want 2 under %d", got.Syncs, got.Schema, SchemaV2)
	}

	upgraded.Store(true)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := reportsJSON(t, a)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("report %s of the fleet differs from one engine over the union", name)
		}
	}

	// A sensor restart, in both directions.
	t.Run("restarted sensor, previous aggregator", func(t *testing.T) { restartedSensorPreviousAggregator(t, b) })
	t.Run("previous sensor restarted, this aggregator", func(t *testing.T) { previousSensorRestarted(t, b, want) })
}

// restartedSensor checkpoints an exporting engine fed the first half of
// the build, which a puller has synced, and restores it: the puller's
// cursor and epoch, and the restored engine.
func restartedSensor(t *testing.T, b *workload.Build) (cursor, epoch uint64, e *stream.Engine) {
	t.Helper()
	certs, half := certList(b), len(b.Raw.Conns)/2
	e1, err := stream.New(stream.Config{Input: inputFromBuild(b), TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	feedSlice(t, e1, b, certs, 0, len(certs), 0, half)
	e1.Drain()
	st, err := e1.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := e1.WriteCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	e, _, err = stream.Restore(stream.Config{Input: inputFromBuild(b), TrackExport: true}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	feedSlice(t, e, b, certs, 0, 0, half, len(b.Raw.Conns))
	e.Drain()
	return st.NextSeq, st.Epoch, e
}

// restartedSensorPreviousAggregator: a restored sensor continues a cursor
// of the epoch it restored under its fresh one — for a puller that says
// it adopts epochs (adopt=1). The previous release's aggregator does not,
// and would refuse that answer as a changed epoch mid-delta and ask again
// forever; it is answered 410, and its full resync converges.
func restartedSensorPreviousAggregator(t *testing.T, b *workload.Build) {
	cursor, epoch, e := restartedSensor(t, b)
	srv := newSensorServer(t, e)
	delta := fmt.Sprintf("%s/api/v1/snapshot?schema=2&since=%d&epoch=%d", srv.URL, cursor, epoch)
	if code, body := httpGet(t, delta); code != http.StatusGone {
		t.Fatalf("the previous release's delta request: status %d (%.200s), want 410", code, body)
	}
	code, body := httpGet(t, srv.URL+"/api/v1/snapshot?schema=2")
	if code != http.StatusOK {
		t.Fatalf("the full resync: status %d", code)
	}
	full, err := Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if full.Epoch == epoch || full.ConnsIngested != uint64(len(b.Raw.Conns)) {
		t.Fatalf("the full resync: epoch %d (was %d), %d conns", full.Epoch, epoch, full.ConnsIngested)
	}
	code, body = httpGet(t, delta+"&adopt=1")
	if code != http.StatusOK {
		t.Fatalf("a delta request that adopts epochs: status %d", code)
	}
	if continued, err := Decode(bytes.NewReader(body)); err != nil || continued.Epoch != full.Epoch || continued.Since != cursor {
		t.Fatalf("a delta request that adopts epochs: %v, since %d under epoch %d", err, continued.Since, continued.Epoch)
	}
}

// keptEpoch answers as the previous release's sensor does after a
// restore: under the epoch it checkpointed, whatever its engine numbers
// under now.
type keptEpoch struct {
	e           *stream.Engine
	kept, fresh uint64
}

func (k keptEpoch) ExportFrom(since, epoch uint64, pairs int) (*stream.ExportState, error) {
	if epoch == k.kept {
		epoch = k.fresh
	}
	st, err := k.e.ExportFrom(since, epoch, pairs)
	if err != nil {
		return nil, err
	}
	relabelled := *st
	relabelled.Epoch = k.kept
	return &relabelled, nil
}

func (k keptEpoch) NextPublish() <-chan struct{} { return k.e.NextPublish() }

// previousSensorRestarted: the previous release's sensor, restored from
// its checkpoint with nothing served past it, keeps its epoch; the
// adoption parameter this aggregator sends is one it ignores, and the
// aggregator goes on in deltas to the union's reports.
func previousSensorRestarted(t *testing.T, b *workload.Build, want map[string]string) {
	certs, half := certList(b), len(b.Raw.Conns)/2
	e1 := newSensorEngine(t, b)
	feedSlice(t, e1, b, certs, 0, len(certs), 0, half)
	e1.Drain()
	sw := &swapExporter{exp: e1}
	a := newAgg(t, b, nil, newSensorServer(t, sw).URL)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := e1.WriteCheckpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	kept, err := e1.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	e2, _, err := stream.Restore(stream.Config{Input: inputFromBuild(b), TrackExport: true}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	fresh, err := e2.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	feedSlice(t, e2, b, certs, 0, 0, half, len(b.Raw.Conns))
	e2.Drain()
	sw.swap(keptEpoch{e: e2, kept: kept.Epoch, fresh: fresh.Epoch})
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := a.SensorStatuses()[0]; s.FullResyncs != 0 || s.Epoch != kept.Epoch || s.Syncs != 2 {
		t.Fatalf("after the previous release's restart: %+v, want two delta syncs under epoch %d", s, kept.Epoch)
	}
	got := reportsJSON(t, a)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("report %s differs from one engine over the union", name)
		}
	}
}

package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/stream"
)

// The bodies under testdata/parent are SchemaV1 snapshots as the previous
// release's sensor served them (commit 01cd2dd, the last whose only wire
// format was JSON; internal/stream/testdata/parent/README.md has the
// writer): a full snapshot and the delta from its cursor, each beside the
// export it was encoded from.

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
	var st stream.ExportState
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	return body, &st
}

// fixedExporter serves one recorded export, whatever the cursor.
type fixedExporter struct{ st *stream.ExportState }

func (f fixedExporter) Export(since, epoch uint64) (*stream.ExportState, error) { return f.st, nil }

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

// TestParentSchemaV1Bodies: what the previous release put on the wire
// decodes to what its writer exported and encodes back, under Schema 1, to
// the same bytes; this release's sensor, asked for schema 1, serves those
// very bytes for the same export, serves the same snapshot in a fraction of
// them under schema 2, and refuses schema 3 naming both it speaks.
func TestParentSchemaV1Bodies(t *testing.T) {
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
		want := FromExport(st)
		want.Schema = SchemaV1
		if !reflect.DeepEqual(snap, want) {
			t.Fatalf("%s: the parent's body does not decode to what its writer exported", kind)
		}
		var again bytes.Buffer
		if err := Encode(&again, snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("%s: re-encoded under schema 1 as %d bytes that differ from the parent's %d", kind, again.Len(), len(body))
		}

		srv := newSensorServer(t, fixedExporter{st}, SupportedSchemas())
		for _, query := range []string{"?schema=1", ""} {
			if code, served := httpGet(t, srv.URL+"/api/v1/snapshot"+query); code != http.StatusOK || !bytes.Equal(served, body) {
				t.Fatalf("%s: snapshot%s: status %d, %d bytes; want the parent's %d bytes", kind, query, code, len(served), len(body))
			}
		}
		code, served := httpGet(t, srv.URL+"/api/v1/snapshot?schema=2")
		if code != http.StatusOK || len(served)*2 > len(body) {
			t.Fatalf("%s: schema 2: status %d, %d bytes against schema 1's %d", kind, code, len(served), len(body))
		}
		v2, err := Decode(bytes.NewReader(served))
		if err != nil {
			t.Fatal(err)
		}
		if v2.Schema != SchemaV2 {
			t.Fatalf("%s: asked for schema 2, served %d", kind, v2.Schema)
		}
		v2.Schema = SchemaV1
		if !reflect.DeepEqual(v2, want) {
			t.Fatalf("%s: the schema 2 body carries another snapshot than the schema 1 body", kind)
		}
		code, served = httpGet(t, srv.URL+"/api/v1/snapshot?schema=3")
		if code != http.StatusNotAcceptable || !strings.Contains(string(served), "supported: 2,1") {
			t.Fatalf("%s: schema 3: status %d, body %s; want 406 naming 2,1", kind, code, served)
		}
	}
}

// releaseSwitch serves an exporting engine as a sensor of this release or,
// once previous is set, as the previous release's did: schema 1 in
// /api/v1/version and nothing else served.
type releaseSwitch struct {
	sensor   http.HandlerFunc
	previous atomic.Bool
	// ignoreSchema makes the sensor answer every request under schema 1,
	// whatever it was asked and whatever it advertises.
	ignoreSchema atomic.Bool
}

func newReleaseSwitch(t *testing.T, exp Exporter, previous bool) (*releaseSwitch, string) {
	t.Helper()
	rs := &releaseSwitch{sensor: NewSensor(exp, nil, nil).Handler()}
	rs.previous.Store(previous)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		schemas := SupportedSchemas()
		if rs.previous.Load() {
			schemas = []int{SchemaV1}
		}
		json.NewEncoder(w).Encode(map[string]any{"snapshot_schemas": schemas})
	})
	mux.HandleFunc("/api/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch {
		case rs.ignoreSchema.Load():
			q.Set("schema", "1")
			r.URL.RawQuery = q.Encode()
		case rs.previous.Load() && q.Get("schema") != "1":
			writeAPIError(w, http.StatusNotAcceptable, "unsupported snapshot schema "+q.Get("schema")+"; supported: 1")
			return
		}
		rs.sensor(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return rs, srv.URL
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

// TestMixedReleaseFleet: an aggregator of this release over one sensor of
// the previous release (schema 1 only) and one of this one negotiates 1
// with the first and 2 with the second and converges, sync after sync, to
// the 23 reports of one engine over the union. Then the second sensor is
// rolled back under the aggregator: the next pull is refused, nothing of it
// is merged, the one after renegotiates schema 1 and resumes from the same
// cursor — a delta, not a re-sync. A sensor that answers under another
// schema than it was asked is an error every time, never a merge.
func TestMixedReleaseFleet(t *testing.T) {
	b := genBuild(20240504, 1200)
	certs := certList(b)
	conns := len(b.Raw.Conns)
	union := newSensorEngine(t, b)
	feedSlice(t, union, b, certs, 0, len(certs), 0, conns)
	union.Drain()
	want := reportsJSON(t, union)

	old, cur := newSensorEngine(t, b), newSensorEngine(t, b)
	_, oldURL := newReleaseSwitch(t, old, true)
	sw, curURL := newReleaseSwitch(t, cur, false)
	a := newAgg(t, b, nil, oldURL, curURL)
	schemas := func() [2]int {
		st := a.SensorStatuses()
		return [2]int{st[0].Schema, st[1].Schema}
	}
	// Three rounds: each sensor feeds a third of its half of the connections
	// (every certificate ahead of the first), then a sync.
	round := func(i int) {
		t.Helper()
		half, nCerts := conns/2, 0
		if i == 0 {
			nCerts = len(certs)
		}
		feedSlice(t, old, b, certs, 0, nCerts, half*i/3, half*(i+1)/3)
		feedSlice(t, cur, b, certs, 0, nCerts, half+(conns-half)*i/3, half+(conns-half)*(i+1)/3)
		old.Drain()
		cur.Drain()
	}
	round(0)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := schemas(); got != [2]int{SchemaV1, SchemaV2} {
		t.Fatalf("negotiated schemas %v, want 1 with the previous release's sensor and 2 with this one's", got)
	}
	round(1)
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The rollback, between two syncs.
	before := a.SensorStatuses()[1]
	sw.previous.Store(true)
	round(2)
	if err := a.SyncAll(context.Background()); err == nil || !strings.Contains(err.Error(), "406") {
		t.Fatalf("pull of schema 2 from a rolled-back sensor: err = %v, want its 406", err)
	}
	if st := a.SensorStatuses()[1]; st.Cursor != before.Cursor || st.Conns != before.Conns {
		t.Fatalf("a refused pull moved the sensor's state: cursor %d → %d, conns %d → %d", before.Cursor, st.Cursor, before.Conns, st.Conns)
	}
	if err := a.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.SensorStatuses()[1]
	if st.Schema != SchemaV1 || st.FullResyncs != 0 || st.Cursor <= before.Cursor {
		t.Fatalf("after renegotiating: schema %d, %d full re-syncs, cursor %d → %d; want schema 1 and a delta", st.Schema, st.FullResyncs, before.Cursor, st.Cursor)
	}
	got := reportsJSON(t, a)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("report %s of the mixed fleet differs from one engine over the union", name)
		}
	}

	// Upgraded again, but answering schema 1 to a request for schema 2.
	sw.previous.Store(false)
	sw.ignoreSchema.Store(true)
	fresh := newAgg(t, b, nil, curURL)
	for i := 0; i < 2; i++ {
		if err := fresh.SyncAll(context.Background()); !errors.Is(err, ErrSchema) {
			t.Fatalf("sync %d of a sensor answering under another schema: err = %v, want ErrSchema", i, err)
		}
	}
	if got := fresh.SensorStatuses()[0]; got.Conns != 0 || got.Cursor != 0 || got.Syncs != 0 {
		t.Fatalf("a body of the wrong schema was merged: %+v", got)
	}
}

package stream

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/internal/zeek"
)

// writeReplayLogs persists the dataset as ssl.log/x509.log in dir —
// the zeek-writer core of mtls.WriteLogs, inlined here because the
// facade package now depends on this one (via internal/distrib) and an
// in-package test cannot import it back.
func writeReplayLogs(t *testing.T, ds *zeek.Dataset, dir string) {
	t.Helper()
	sslF, err := os.Create(filepath.Join(dir, "ssl.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer sslF.Close()
	sw := zeek.NewSSLWriter(sslF)
	for i := range ds.Conns {
		if err := sw.Write(&ds.Conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	certs := make([]*certmodel.CertInfo, 0, len(ds.Certs))
	for _, c := range ds.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	x509F, err := os.Create(filepath.Join(dir, "x509.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer x509F.Close()
	xw := zeek.NewX509Writer(x509F)
	for _, c := range certs {
		rec := zeek.X509Record{TS: c.NotBefore, ID: ids.NewFileID(c.Fingerprint), Cert: c}
		if err := xw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := xw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// openReplayLogs reloads a pair written by writeReplayLogs (strict).
func openReplayLogs(t *testing.T, dir string) *zeek.Dataset {
	t.Helper()
	sslF, err := os.Open(filepath.Join(dir, "ssl.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer sslF.Close()
	x509F, err := os.Open(filepath.Join(dir, "x509.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer x509F.Close()
	ds, err := zeek.LoadDataset(sslF, x509F)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func inputFromBuild(b *workload.Build) *core.Input {
	return &core.Input{
		Raw:           b.Raw,
		CT:            b.CT,
		Bundle:        b.Bundle,
		CampusIssuers: b.CampusIssuers,
		Assoc: core.AssocMap{
			HealthSLDs:     b.Assoc.HealthSLDs,
			UniversitySLDs: b.Assoc.UniversitySLDs,
			VPNHostPrefix:  b.Assoc.VPNHostPrefix,
			LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
			ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
			GlobusSLDs:     b.Assoc.GlobusSLDs,
		},
		Plan: b.Plan,
	}
}

func genBuild(seed uint64, scale int) *workload.Build {
	b, err := workload.FromSpec(nil, workload.Config{Seed: seed, CertScale: scale})
	if err != nil {
		panic(err)
	}
	return b
}

// feed pushes a build through an engine: certificates first, then
// connections in dataset order — the interleaving a well-ordered log
// replay produces.
func feed(t *testing.T, e *Engine, b *workload.Build) {
	t.Helper()
	for _, c := range b.Raw.Certs {
		if !e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
			t.Fatal("cert event rejected")
		}
	}
	for i := range b.Raw.Conns {
		if !e.IngestConn(&b.Raw.Conns[i]) {
			t.Fatal("conn event rejected")
		}
	}
}

// newEngine starts an engine that the test's cleanup closes.
func newEngine(t *testing.T, in *core.Input, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Input: in}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestEngineLateCertBetweenReads prices a late certificate by when it
// lands. Withheld until after the connections that name it but delivered
// before the next read, it costs nothing — a catch-up adds certificates
// ahead of connections, so the enrichment resolves it as batch would.
// Delivered after a read that enriched those connections without it, it
// costs re-enriching that one connection in place, not a replay. Both
// ways the reports equal batch.
func TestEngineLateCertBetweenReads(t *testing.T) {
	b := genBuild(20240504, 2000)
	batch := core.Run(inputFromBuild(b))
	// The withheld certificate: a client leaf no connection presents as a
	// server leaf, so it cannot move the §3.2 verdict; and the connection
	// that first names it repeats an earlier one's server leaf and SNI, so
	// that connection brings the detector no new evidence either. Nothing
	// but the certificate's lateness can then make the read after it
	// replay. The latest such connection, for a window worth replaying.
	type serverSide struct {
		leaf ids.Fingerprint
		sni  string
	}
	served, named, seen := map[ids.Fingerprint]bool{}, map[ids.Fingerprint]bool{}, map[serverSide]bool{}
	for i := range b.Raw.Conns {
		served[b.Raw.Conns[i].ServerLeaf()] = true
	}
	var late *certmodel.CertInfo
	first := -1
	for i := range b.Raw.Conns {
		rec := &b.Raw.Conns[i]
		side := serverSide{rec.ServerLeaf(), rec.SNI}
		if cl := rec.ClientLeaf(); cl != "" && !named[cl] {
			named[cl] = true
			if c := b.Raw.Certs[cl]; c != nil && !served[cl] && seen[side] {
				late, first = c, i
			}
		}
		seen[side] = true
	}
	if late == nil {
		t.Fatal("the build has no client-only leaf first named beside a repeated server side")
	}

	for _, readBetween := range []bool{false, true} {
		in := inputFromBuild(b)
		in.Raw = nil
		reg := metrics.New()
		e := newEngine(t, in, func(c *Config) { c.Metrics = reg })
		for _, c := range b.Raw.Certs {
			if c != late {
				e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
			}
		}
		e.IngestConnBatch(b.Raw.Conns[:first])
		e.Drain()
		e.Analysis() // the first replay
		e.IngestConn(&b.Raw.Conns[first])
		want, wantLate := map[core.ReplayReason]uint64{core.ReplayFirst: 1}, uint64(0)
		if readBetween {
			e.Drain()
			e.Analysis() // enriches the connection without its client certificate
			wantLate = 1
		}
		e.IngestCert(&core.CertRecord{TS: late.NotBefore, Cert: late})
		e.Drain()
		e.Analysis()
		if got := mergeReplays(reg); !reflect.DeepEqual(got, want) {
			t.Errorf("read between %v: replays %v, want %v", readBetween, got, want)
		}
		if got := reg.Counter("stream_merge_late_conns_total", "").Value(); got != wantLate {
			t.Errorf("read between %v: %d connections re-enriched in place, want %d", readBetween, got, wantLate)
		}
		if st := e.Stats(); st.Rebuilds != 1 || st.Dirty {
			t.Errorf("read between %v: Stats() = %d rebuilds, dirty %v; want 1, false", readBetween, st.Rebuilds, st.Dirty)
		}
		e.IngestConnBatch(b.Raw.Conns[first+1:])
		e.Drain()
		if got := e.Analysis(); !reflect.DeepEqual(batch, got) {
			t.Errorf("read between %v: analysis differs from batch", readBetween)
		}
		if got := mergeReplays(reg); got[core.ReplayOrder] != 0 || got[core.ReplayLost] != 0 {
			t.Errorf("read between %v: replays %v, want none for order or loss", readBetween, got)
		}
	}
}

// stallApply stops e's apply loop by taking the state lock it applies
// under — a report no longer holds that lock, so parking one stalls
// nothing. release lets the loop go again.
func stallApply(e *Engine) (release func()) {
	e.win.mu.Lock()
	return e.win.mu.Unlock
}

// TestBackpressureDrop verifies the Drop policy sheds load without
// corrupting state, and that drops are counted. A shed connection is not
// retained and not counted as ingested, but the router's detector saw it
// when it numbered it: the §3.2 numbers are those of one stream over every
// connection offered, not over the accepted ones alone.
func TestBackpressureDrop(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, func(c *Config) { c.Policy = Drop; c.Buffer = 8 })
	offered, kept := newOracle(in), newOracle(in)
	for _, c := range b.Raw.Certs {
		if !e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c}) {
			t.Fatal("cert event rejected")
		}
		offered.cert(c)
		kept.cert(c)
	}

	// Stall the apply loop, then flood.
	release := stallApply(e)
	var accepted, dropped int
	for i := range b.Raw.Conns {
		offered.conn(&b.Raw.Conns[i])
		if e.IngestConn(&b.Raw.Conns[i]) {
			kept.conn(&b.Raw.Conns[i])
			accepted++
		} else {
			dropped++
		}
	}
	release()
	e.Drain()

	if dropped == 0 {
		t.Fatal("expected drops with a stalled consumer and an 8-slot buffer")
	}
	st := offered.check(t, e, "flooded")
	if st.ExcludedCerts <= kept.icpt.ExcludedCount() {
		t.Fatalf("vacuous: the accepted connections alone exclude %d certificates, all offered %d", kept.icpt.ExcludedCount(), st.ExcludedCerts)
	}
	if st.Dropped != uint64(dropped) {
		t.Fatalf("Stats.Dropped = %d, want %d", st.Dropped, dropped)
	}
	if st.ConnsIngested != uint64(accepted) {
		t.Fatalf("ConnsIngested = %d, want %d accepted", st.ConnsIngested, accepted)
	}
	a := e.Analysis()
	if a.Preprocess.RawConns != accepted {
		t.Fatalf("RawConns = %d, want %d", a.Preprocess.RawConns, accepted)
	}
	if a.Preprocess.ExcludedCerts != st.ExcludedCerts {
		t.Fatalf("the read excludes %d certificates, Stats %d", a.Preprocess.ExcludedCerts, st.ExcludedCerts)
	}
}

// TestDropNeverShedsCertificates: a certificate is admitted into the
// router's roster without crossing the window's buffer, so a full buffer
// under Policy Drop cannot shed one. With the apply loop stalled behind a
// two-slot buffer, every certificate IngestCert accepts is counted, none
// as dropped, and the roster and the read that follow — before any
// connection is fed — hold them all, the ones no connection will name as
// a leaf included; connections fed afterwards (drained one batch at a
// time, so none is shed) then yield the batch pipeline's reports.
func TestDropNeverShedsCertificates(t *testing.T) {
	b := genBuild(20240504, 2000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)
	s := newEngine(t, in, func(c *Config) { c.Policy = Drop; c.Buffer = 2 })
	release := stallApply(s)
	accepted := 0
	for i := range certs {
		if s.IngestCert(&certs[i]) {
			accepted++
		}
	}
	release()
	s.Drain()
	if accepted != len(certs) {
		t.Fatalf("IngestCert accepted %d of %d", accepted, len(certs))
	}
	if st := s.Stats(); st.Dropped != 0 || st.UniqueCerts != accepted || st.CertsIngested != uint64(accepted) {
		t.Errorf("dropped %d, unique %d, ingested %d; want 0 and the %d accepted", st.Dropped, st.UniqueCerts, st.CertsIngested, accepted)
	}
	if a := s.Analysis(); a.Preprocess.RawCerts != accepted {
		t.Errorf("the read holds %d certificates, want %d", a.Preprocess.RawCerts, accepted)
	}
	s.mu.Lock()
	held := len(s.roster)
	s.mu.Unlock()
	if held != accepted {
		t.Errorf("the roster holds %d certificates, want %d", held, accepted)
	}
	for lo := 0; lo < len(b.Raw.Conns); lo += 512 {
		hi := min(lo+512, len(b.Raw.Conns))
		if got := s.IngestConnBatch(b.Raw.Conns[lo:hi]); got != hi-lo {
			t.Fatalf("a drained engine shed %d connections", hi-lo-got)
		}
		s.Drain()
	}
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("analysis differs from batch: an accepted certificate is missing")
	}
}

// TestLateCertDrainsBehindFullBuffer: a certificate crosses no
// buffer, and neither do the observations parked on it — they wait in the
// router's detector. With the apply loop stalled behind a full one-slot
// buffer under Policy Drop, the late leaf's arrival alone takes
// PendingCerts from 1 to 0: no apply, no further connection.
func TestLateCertDrainsBehindFullBuffer(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	var parked, other *core.ConnRecord
	for i := range b.Raw.Conns {
		if c := &b.Raw.Conns[i]; c.ServerLeaf() == "" {
			continue
		} else if parked == nil {
			parked = c
		} else if c.ServerLeaf() != parked.ServerLeaf() {
			other = c
			break
		}
	}
	late := b.Raw.Certs[parked.ServerLeaf()]
	e := newEngine(t, in, func(c *Config) { c.Policy = Drop; c.Buffer = 1 })
	if punctual := b.Raw.Certs[other.ServerLeaf()]; !e.IngestCert(&core.CertRecord{TS: punctual.NotBefore, Cert: punctual}) {
		t.Fatal("cert event rejected")
	}
	if !e.IngestConn(parked) {
		t.Fatal("conn event rejected")
	}
	e.Drain()
	if got := e.Stats().PendingCerts; got != 1 {
		t.Fatalf("%d observations parked, want the one whose certificate is late", got)
	}

	release := stallApply(e)
	// Two accepted sends: the stalled loop holds one, the one-slot buffer
	// the other, so nothing more fits until release.
	shed := uint64(0)
	for accepted := 0; accepted < 2; {
		if e.IngestConn(other) {
			accepted++
		} else {
			shed++
		}
	}
	if !e.IngestCert(&core.CertRecord{TS: late.NotBefore, Cert: late}) {
		t.Fatal("a full buffer refused a certificate")
	}
	if e.IngestConn(other) {
		t.Fatal("the buffer took a third batch: the certificate did not arrive behind a full one")
	}
	shed++
	// Stats takes the state lock the stall holds, so it is read after the
	// release — without a Drain: the number does not wait for the window.
	release()
	if st := e.Stats(); st.PendingCerts != 0 || st.Dropped != shed {
		t.Fatalf("after the late certificate: %d parked, %d dropped; want 0 and the %d connections shed", st.PendingCerts, st.Dropped, shed)
	}
}

// TestBackpressureBlock verifies the Block policy never drops: a stalled
// consumer delays the producer, and everything lands.
func TestBackpressureBlock(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, func(c *Config) { c.Buffer = 8 })

	release := stallApply(e)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range b.Raw.Conns {
			e.IngestConn(&b.Raw.Conns[i])
		}
	}()
	select {
	case <-done:
		t.Fatal("producer finished against a stalled consumer with an 8-slot buffer")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-done
	e.Drain()
	if st := e.Stats(); st.Dropped != 0 || st.ConnsIngested != uint64(len(b.Raw.Conns)) {
		t.Fatalf("block policy: dropped=%d ingested=%d want 0/%d",
			st.Dropped, st.ConnsIngested, len(b.Raw.Conns))
	}
}

// TestReportRegistry materializes every named report and checks the
// registry covers the full Analysis surface.
func TestReportRegistry(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()

	names := ReportNames()
	if len(names) != 23 {
		t.Fatalf("report names = %d, want 23", len(names))
	}
	for _, name := range names {
		out, err := e.Report(name)
		if err != nil {
			t.Fatalf("Report(%q): %v", name, err)
		}
		if out == nil || reflect.ValueOf(out).IsNil() {
			t.Fatalf("Report(%q) returned nil", name)
		}
	}
	if _, err := e.Report("nope"); err == nil {
		t.Fatal("unknown report name must error")
	}
}

// TestIngestAfterClose: a closed engine admits nothing — connections and
// certificates are refused one at a time and in batches, and no counter
// or sequence moves — instead of panicking, and still materializes.
func TestIngestAfterClose(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	fresh := syntheticCerts(2) // the roster has never seen these
	e, err := New(Config{Input: in, TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, b)
	e.Close()
	want, wantExport := e.Stats(), mustExport(t, e, 0, 0)
	if e.IngestConn(&b.Raw.Conns[0]) || e.IngestConnBatch(b.Raw.Conns[:8]) != 0 {
		t.Fatal("connection ingest after close must admit nothing")
	}
	if e.IngestCert(&fresh[0]) || e.IngestCertBatch(fresh) != 0 {
		t.Fatal("certificate ingest after close must admit nothing")
	}
	e.Drain() // must not hang
	if got := e.Stats(); got != want {
		t.Fatalf("Stats moved after close:\n got %+v\nwant %+v", got, want)
	}
	if got := mustExport(t, e, 0, 0); got.NextSeq != wantExport.NextSeq || len(got.Certs) != len(wantExport.Certs) {
		t.Fatalf("closed engine numbered on: next sequence %d → %d, %d → %d certificates",
			wantExport.NextSeq, got.NextSeq, len(wantExport.Certs), len(got.Certs))
	}
	if a := e.Analysis(); a.CertStats.Row("Total").Total == 0 {
		t.Fatal("closed engine must still materialize")
	}
}

// TestIngestRejectsInvalid checks the ingest boundary refuses events the
// apply loop could not handle sensibly — nil records, weightless
// connections, fingerprint-less certificates — and counts each refusal
// in Stats.Rejected without disturbing the ingested totals.
func TestIngestRejectsInvalid(t *testing.T) {
	b := genBuild(20240504, 500)
	in := inputFromBuild(b)
	in.Raw = nil
	e, err := New(Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bad := b.Raw.Conns[0]
	bad.Weight = 0
	neg := b.Raw.Conns[1]
	neg.Weight = -3
	if e.IngestConn(nil) || e.IngestConn(&bad) || e.IngestConn(&neg) {
		t.Fatal("invalid conn events must be rejected")
	}
	var c0 *certmodel.CertInfo
	for _, c := range b.Raw.Certs {
		c0 = c
		break
	}
	noCert := core.CertRecord{TS: c0.NotBefore}
	unkeyed := core.CertRecord{TS: c0.NotBefore, Cert: &certmodel.CertInfo{}}
	if e.IngestCert(nil) || e.IngestCert(&noCert) || e.IngestCert(&unkeyed) {
		t.Fatal("invalid cert events must be rejected")
	}
	if !e.IngestConn(&b.Raw.Conns[0]) || !e.IngestCert(&core.CertRecord{TS: c0.NotBefore, Cert: c0}) {
		t.Fatal("valid events must still be accepted")
	}
	e.Drain()
	st := e.Stats()
	if st.Rejected != 6 {
		t.Fatalf("Rejected = %d, want 6", st.Rejected)
	}
	if st.ConnsIngested != 1 || st.CertsIngested != 1 {
		t.Fatalf("ingested = %d conns / %d certs, want 1 / 1", st.ConnsIngested, st.CertsIngested)
	}
}

// TestLogReplayMatchesBatch round-trips the dataset through the TSV logs
// and the tailing readers — the daemon's exact ingestion path — and
// checks the drained stream still equals batch on the same logs.
func TestLogReplayMatchesBatch(t *testing.T) {
	b := genBuild(20240504, 1500)
	dir := t.TempDir()
	writeReplayLogs(t, b.Raw, dir)
	// Batch over the reloaded logs (fingerprint identity survives the
	// round trip, so this matches the daemon's view).
	reloaded := openReplayLogs(t, dir)
	bin := inputFromBuild(b)
	bin.Raw = reloaded
	batch := core.Run(bin)

	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	xt := zeek.NewX509Tail(filepath.Join(dir, "x509.log"))
	st := zeek.NewSSLTail(filepath.Join(dir, "ssl.log"))
	certs, err := xt.Poll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range certs {
		e.IngestCert(&certs[i])
	}
	conns, err := st.Poll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range conns {
		e.IngestConn(&conns[i])
	}
	e.Drain()
	if got := e.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("log-replayed stream analysis differs from batch over the same logs")
	}
}

// TestShardedConcurrentIngestAndMaterialize hammers materialization and
// stats while ingestion is in flight — the merge snapshots the window
// under its lock but merges lock-free against live slice headers, and
// this is the test that puts the race detector on that path. Reads land
// between batches with the apply loop at any point of its queue; none may
// meet a connection sorting below one it already merged, most must be
// catch-ups, and the final drained analysis must still equal batch.
func TestShardedConcurrentIngestAndMaterialize(t *testing.T) {
	b := genBuild(99, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	reg := metrics.New()
	s := newEngine(t, in, func(c *Config) { c.Metrics = reg })

	done := make(chan struct{})
	go func() {
		defer close(done)
		feed(t, s, b)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			s.Stats()
			if i%3 == 0 {
				if a := s.Analysis(); a == nil {
					t.Error("nil mid-stream analysis")
				}
			}
			continue
		}
		break
	}
	s.Drain()
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("merged analysis differs from batch after concurrent materialization")
	}
	replays := mergeReplays(reg)
	if replays[core.ReplayOrder] != 0 || replays[core.ReplayLost] != 0 {
		t.Errorf("replays %v: a window appended in sequence order that never evicts has no order or lost replay", replays)
	}
	st := s.Stats()
	if merges := reg.Counter("stream_merges_total", "").Value(); merges <= st.Rebuilds {
		t.Errorf("%d merges, %d of them replays (%v): no read was a catch-up", merges, st.Rebuilds, replays)
	}
}

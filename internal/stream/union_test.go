package stream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/race"
	"repro/internal/truststore"
)

// oracle is the §3.2 filter in one place: one interception.Stream and the
// roster it resolves leaves against, fed the events an engine accepted in
// the order it accepted them. It shares package interception with the
// engine and nothing of package stream.
type oracle struct {
	certs map[ids.Fingerprint]*certmodel.CertInfo
	icpt  *interception.Stream
}

func newOracle(in *core.Input) *oracle {
	return &oracle{
		certs: map[ids.Fingerprint]*certmodel.CertInfo{},
		icpt:  interception.NewDetector(in.Bundle, in.CT).NewStream(),
	}
}

func (o *oracle) cert(c *certmodel.CertInfo) {
	if o.certs[c.Fingerprint] == nil {
		o.certs[c.Fingerprint] = c
		o.icpt.ObserveCert(c)
	}
}

func (o *oracle) conn(rec *core.ConnRecord) {
	o.icpt.Observe(rec, o.certs[rec.ServerLeaf()])
}

// check asserts the engine's three §3.2 stats equal the oracle's.
func (o *oracle) check(t *testing.T, s *Engine, step string) Stats {
	t.Helper()
	st := s.Stats()
	if st.PendingCerts != o.icpt.PendingCount() || st.ExcludedCerts != o.icpt.ExcludedCount() || st.InterceptionIssuers != o.icpt.ConfirmedCount() {
		t.Fatalf("%s: Stats = %d pending / %d excluded / %d issuers, one stream fed the same events = %d / %d / %d",
			step, st.PendingCerts, st.ExcludedCerts, st.InterceptionIssuers,
			o.icpt.PendingCount(), o.icpt.ExcludedCount(), o.icpt.ConfirmedCount())
	}
	return st
}

// corroborationInput is a minimal analysis context in which one
// untrusted issuer re-signs two CT-logged domains: either connection
// alone leaves it a candidate, both together confirm it.
func corroborationInput() (*core.Input, []*certmodel.CertInfo, []core.ConnRecord) {
	log := ct.NewLog()
	proxy := &interception.Proxy{IssuerOrg: "Sneaky Inspection CA", IssuerCN: "Sneaky Root"}
	var certs []*certmodel.CertInfo
	var conns []core.ConnRecord
	for i, dom := range []string{"bank.com", "shop.com"} {
		orig := &certmodel.CertInfo{
			SerialHex: "0A", Version: 3, IssuerOrg: "DigiCert Inc", IssuerCN: "DigiCert Inc CA",
			SubjectCN: "www." + dom, SANDNS: []string{"www." + dom},
			NotBefore: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), NotAfter: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
		}
		orig.Fingerprint = certmodel.SyntheticFingerprint(orig, dom)
		log.AddChain(ct.Entry{Domain: dom, IssuerOrg: "DigiCert Inc"})
		re := proxy.Intercept(orig, dom)
		certs = append(certs, re)
		conns = append(conns, core.ConnRecord{
			TS: time.Date(2022, 6, 1+i, 0, 0, 0, 0, time.UTC), SNI: "www." + dom,
			RespPort: 443, Established: true,
			ServerChain: []ids.Fingerprint{re.Fingerprint}, Weight: 1,
		})
	}
	return &core.Input{CT: log, Bundle: truststore.DefaultBundle()}, certs, conns
}

// TestShardedUnionCorroboratesAcrossShards is the case a verdict over part
// of the stream cannot see: the issuer is contradicted on domain A by one
// connection and on domain B by another, so only the one detector's
// verdict over both confirms it — as the second pair lands, not before.
func TestShardedUnionCorroboratesAcrossShards(t *testing.T) {
	in, certs, conns := corroborationInput()
	s := newEngine(t, in, nil)
	o := newOracle(in)
	conns[0].UID, conns[1].UID = "Ca", "Cb"
	for _, c := range certs {
		s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		o.cert(c)
	}
	s.IngestConn(&conns[0])
	o.conn(&conns[0])
	s.Drain()
	if st := o.check(t, s, "first domain"); st.InterceptionIssuers != 0 || st.ExcludedCerts != 0 {
		t.Fatalf("one contradicted domain confirmed the issuer: %+v", st)
	}
	s.IngestConn(&conns[1])
	o.conn(&conns[1])
	s.Drain()
	if st := o.check(t, s, "second domain"); st.InterceptionIssuers != 1 || st.ExcludedCerts != 2 {
		t.Fatalf("verdict %d issuers / %d excluded, want 1 / 2", st.InterceptionIssuers, st.ExcludedCerts)
	}
}

// TestShardedUnionConcurrent runs Stats, Report and Export against live
// ingest — the three readers of the one detector: Stats off its published
// sizes, the other two under the router lock — for the race detector, then
// checks the drained verdict.
func TestShardedUnionConcurrent(t *testing.T) {
	b := genBuild(7, 4000)
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)
	s := newEngine(t, in, func(c *Config) { c.TrackExport = true })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	var lastExcluded int
	reader(func() {
		// The exclusion set only grows, so one reader never sees it shrink.
		if st := s.Stats(); st.ExcludedCerts < lastExcluded {
			t.Errorf("ExcludedCerts went backwards: %d after %d", st.ExcludedCerts, lastExcluded)
		} else {
			lastExcluded = st.ExcludedCerts
		}
	})
	reader(func() {
		if _, err := s.Report("preprocess"); err != nil {
			t.Error(err)
		}
	})
	reader(func() {
		if _, err := s.Export(0, 0); err != nil {
			t.Error(err)
		}
	})
	feedBatches(t, s, certs, b.Raw.Conns, 256)
	s.Drain()
	close(stop)
	wg.Wait()

	o := newOracle(in)
	for i := range certs {
		o.cert(certs[i].Cert)
	}
	for i := range b.Raw.Conns {
		o.conn(&b.Raw.Conns[i])
	}
	st := o.check(t, s, "drained")
	pre, err := s.Report("preprocess")
	if err != nil {
		t.Fatal(err)
	}
	if got := pre.(*core.PreprocessReport); got.ExcludedCerts != st.ExcludedCerts || len(got.InterceptionIssuers) != st.InterceptionIssuers {
		t.Fatalf("preprocess report %d excluded / %d issuers, Stats %d / %d",
			got.ExcludedCerts, len(got.InterceptionIssuers), st.ExcludedCerts, st.InterceptionIssuers)
	}
}

// statsAllocs measures Engine.Stats on a drained deployment holding the
// campus workload at the given scale (larger = smaller).
func statsAllocs(t *testing.T, scale int) (allocs float64, st Stats) {
	t.Helper()
	b := genBuild(20240504, scale)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)
	feedBatches(t, s, certRecords(b), b.Raw.Conns, 512)
	s.Drain()
	return testing.AllocsPerRun(100, func() { st = s.Stats() }), st
}

// TestShardedStatsAllocsFlat is the regression guard for the O(1) Stats:
// the allocation count must not depend on how much evidence or roster the
// deployment holds. Computing the verdict per call allocates a map per
// issuer and an entry per observed leaf, so it grows with both.
func TestShardedStatsAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	small, stSmall := statsAllocs(t, 12000)
	large, stLarge := statsAllocs(t, 300)
	if stLarge.UniqueCerts < 10*stSmall.UniqueCerts || stLarge.ExcludedCerts < 10*stSmall.ExcludedCerts {
		t.Fatalf("sizes too close to show a slope: %d -> %d certs, %d -> %d excluded",
			stSmall.UniqueCerts, stLarge.UniqueCerts, stSmall.ExcludedCerts, stLarge.ExcludedCerts)
	}
	if small != large {
		t.Errorf("Engine.Stats allocates %.0f at %d certs / %d excluded but %.0f at %d / %d",
			small, stSmall.UniqueCerts, stSmall.ExcludedCerts, large, stLarge.UniqueCerts, stLarge.ExcludedCerts)
	}
}

// TestStatsDoesNotWaitForRouter: Stats reads the router's certificate
// numbers off atomics, so the daemon's 2 ms prober never queues behind a
// batch being routed or an Export holding the router lock across a Drain.
func TestStatsDoesNotWaitForRouter(t *testing.T) {
	b := genBuild(7, 300)
	in := inputFromBuild(b)
	in.Raw = nil
	s := newEngine(t, in, nil)
	feed(t, s, b)
	s.Drain()
	s.mu.Lock()
	done := make(chan Stats, 1)
	go func() { done <- s.Stats() }()
	select {
	case st := <-done:
		s.mu.Unlock()
		if st.UniqueCerts != len(b.Raw.Certs) || st.CertsIngested != uint64(len(b.Raw.Certs)) {
			t.Errorf("Stats under the router lock read %d unique of %d ingested certificates, want %d", st.UniqueCerts, st.CertsIngested, len(b.Raw.Certs))
		}
	case <-time.After(10 * time.Second):
		s.mu.Unlock()
		t.Fatal("Stats waits for the router lock")
	}
}

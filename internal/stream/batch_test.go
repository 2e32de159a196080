package stream

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/workload"
)

// certRecords flattens a build's certificate roster into ingest records
// in a deterministic (fingerprint-sorted) order, so batch boundaries
// land on the same records across runs.
func certRecords(b *workload.Build) []core.CertRecord {
	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	out := make([]core.CertRecord, len(certs))
	for i, c := range certs {
		out[i] = core.CertRecord{TS: c.NotBefore, Cert: c}
	}
	return out
}

// feedBatches pushes certificates then connections through the batched
// ingest in runs of size, the order a well-ordered log replay produces.
func feedBatches(t *testing.T, g *Engine, certs []core.CertRecord, conns []core.ConnRecord, size int) {
	t.Helper()
	for lo := 0; lo < len(certs); lo += size {
		hi := min(lo+size, len(certs))
		if got := g.IngestCertBatch(certs[lo:hi]); got != hi-lo {
			t.Fatalf("IngestCertBatch accepted %d of %d", got, hi-lo)
		}
	}
	for lo := 0; lo < len(conns); lo += size {
		hi := min(lo+size, len(conns))
		if got := g.IngestConnBatch(conns[lo:hi]); got != hi-lo {
			t.Fatalf("IngestConnBatch accepted %d of %d", got, hi-lo)
		}
	}
}

// TestIngestSurfacesMatchBatchPipeline is the ingest contract: the same
// stream fed one record at a time (IngestConn/IngestCert — a batch of
// one) and in 512-record batches drains to an Analysis deeply equal to the batch pipeline's, with the ingest
// counters exact. Each feed also carries one invalid record of each kind
// (nil, weightless, unkeyed), which only Stats.Rejected may notice.
func TestIngestSurfacesMatchBatchPipeline(t *testing.T) {
	b := genBuild(20240504, 1200)
	want := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)
	conns := b.Raw.Conns
	weightless := conns[0]
	weightless.Weight = 0

	feeds := map[string]struct {
		feed     func(t *testing.T, s *Engine)
		rejected uint64
	}{
		"per-event": {func(t *testing.T, s *Engine) {
			if s.IngestConn(nil) || s.IngestConn(&weightless) || s.IngestCert(nil) || s.IngestCert(&core.CertRecord{}) {
				t.Error("invalid event accepted")
			}
			for i := range certs {
				if !s.IngestCert(&certs[i]) {
					t.Fatal("cert event rejected")
				}
			}
			for i := range conns {
				if !s.IngestConn(&conns[i]) {
					t.Fatal("conn event rejected")
				}
			}
		}, 4},
		"batch=512": {func(t *testing.T, s *Engine) {
			if s.IngestConnBatch([]core.ConnRecord{weightless}) != 0 || s.IngestCertBatch([]core.CertRecord{{}}) != 0 {
				t.Error("invalid event accepted")
			}
			feedBatches(t, s, certs, conns, 512)
		}, 2},
	}
	for name, f := range feeds {
		s := newEngine(t, in, nil)
		f.feed(t, s)
		s.Drain()
		if got := s.Analysis(); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: analysis differs from batch pipeline", name)
		}
		st := s.Stats()
		if st.ConnsIngested != uint64(len(conns)) || st.CertsIngested != uint64(len(certs)) || st.UniqueCerts != len(certs) {
			t.Errorf("%s: ingested %d conns / %d certs (%d unique), want %d / %d",
				name, st.ConnsIngested, st.CertsIngested, st.UniqueCerts, len(conns), len(certs))
		}
		if st.Dropped != 0 || st.Rejected != f.rejected {
			t.Errorf("%s: dropped=%d rejected=%d, want 0 and %d", name, st.Dropped, st.Rejected, f.rejected)
		}
	}
}

// TestBatchOutOfOrderCerts feeds every connection batch before any
// certificate batch: the detector parks every observation, the late
// certificates drain them, and the §3.2 retroactive-evidence path must
// work unchanged when events arrive in batches.
func TestBatchOutOfOrderCerts(t *testing.T) {
	b := genBuild(20240504, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)

	s := newEngine(t, in, nil)
	for lo := 0; lo < len(b.Raw.Conns); lo += 512 {
		s.IngestConnBatch(b.Raw.Conns[lo:min(lo+512, len(b.Raw.Conns))])
	}
	for lo := 0; lo < len(certs); lo += 512 {
		s.IngestCertBatch(certs[lo:min(lo+512, len(certs))])
	}
	s.Drain()
	if got := s.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("out-of-order batched analysis differs from batch pipeline")
	}
}

// TestBatchRetroactiveExclusion pins the §3.2 exclusion verdict under
// batched ingest: interception issuers confirmed by evidence spread
// across batches must be excluded exactly as in the batch pipeline.
func TestBatchRetroactiveExclusion(t *testing.T) {
	b := genBuild(20240504, 1200)
	batch := core.Run(inputFromBuild(b))
	if batch.Preprocess.ExcludedCerts == 0 || len(batch.Preprocess.InterceptionIssuers) == 0 {
		t.Fatal("workload exercises no §3.2 exclusions; the test is vacuous")
	}
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)

	s := newEngine(t, in, nil)
	feedBatches(t, s, certs, b.Raw.Conns, 256)
	s.Drain()
	got := s.Analysis()
	if !reflect.DeepEqual(batch.Preprocess, got.Preprocess) {
		t.Errorf("batched preprocess verdict differs from batch pipeline:\n got %+v\nwant %+v", got.Preprocess, batch.Preprocess)
	}
	if st := s.Stats(); st.ExcludedCerts != batch.Preprocess.ExcludedCerts {
		t.Errorf("Stats.ExcludedCerts = %d, want %d", st.ExcludedCerts, batch.Preprocess.ExcludedCerts)
	}
}

// TestBatchBufferReuse pins the ownership contract the batch readers
// rely on: IngestConnBatch/IngestCertBatch copy before returning, so the
// caller may overwrite its batch buffer immediately — exactly what
// ForEachSSLBatch's reused slice does.
func TestBatchBufferReuse(t *testing.T) {
	b := genBuild(99, 1000)
	batch := core.Run(inputFromBuild(b))
	in := inputFromBuild(b)
	in.Raw = nil
	certs := certRecords(b)

	e := newEngine(t, in, nil)
	cbuf := make([]core.CertRecord, 64)
	for lo := 0; lo < len(certs); lo += len(cbuf) {
		n := copy(cbuf, certs[lo:])
		e.IngestCertBatch(cbuf[:n])
		for i := range cbuf[:n] { // scribble over the reused buffer
			cbuf[i] = core.CertRecord{}
		}
	}
	buf := make([]core.ConnRecord, 64)
	for lo := 0; lo < len(b.Raw.Conns); lo += len(buf) {
		n := copy(buf, b.Raw.Conns[lo:])
		e.IngestConnBatch(buf[:n])
		for i := range buf[:n] {
			buf[i] = core.ConnRecord{}
		}
	}
	e.Drain()
	if got := e.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("analysis differs after batch-buffer reuse: ingest retained caller memory")
	}
}

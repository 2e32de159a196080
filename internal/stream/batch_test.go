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

package stream

import (
	"fmt"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/workload"
)

// benchBuild is generated once: workload synthesis dwarfs ingest cost
// and must stay out of the measured loop.
var benchBuild *workload.Build

func getBenchBuild() *workload.Build {
	if benchBuild == nil {
		benchBuild = genBuild(20240504, 1500)
	}
	return benchBuild
}

// benchBatch is the feed granularity of the batched benchmarks — the
// same order of magnitude as a tailer poll over a busy log.
const benchBatch = 512

// benchCertRecs adapts the build's certificates into the record shape
// the parsers emit, once, outside any timer.
func benchCertRecs(bld *workload.Build) []core.CertRecord {
	recs := make([]core.CertRecord, 0, len(bld.Raw.Certs))
	for _, c := range bld.Raw.Certs {
		recs = append(recs, core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	return recs
}

// BenchmarkShardedIngest measures ingest throughput (feed + drain, no
// materialization) on the batched router path — one lock acquisition and
// one channel operation per batch. Its name is the one the shard-count
// rows it replaced were read under.
func BenchmarkShardedIngest(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	certRecs := benchCertRecs(bld)
	events := len(certRecs) + len(bld.Raw.Conns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Input: in})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(certRecs); lo += benchBatch {
			s.IngestCertBatch(certRecs[lo:min(lo+benchBatch, len(certRecs)):len(certRecs)])
		}
		for lo := 0; lo < len(bld.Raw.Conns); lo += benchBatch {
			s.IngestConnBatch(bld.Raw.Conns[lo:min(lo+benchBatch, len(bld.Raw.Conns))])
		}
		s.Drain()
		s.Close()
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// liveFeed hands out connection rows no engine has seen, each batch with
// the certificates its rows use first, cut from builds of fresh seeds.
type liveFeed struct {
	seed  uint64
	conns []core.ConnRecord
	certs map[ids.Fingerprint]*certmodel.CertInfo
	sent  map[ids.Fingerprint]bool
}

// next returns the next n rows and, ahead of them, the certificates they
// name that no earlier batch carried.
func (f *liveFeed) next(n int) ([]core.CertRecord, []core.ConnRecord) {
	if len(f.conns) < n {
		f.seed++
		bld := genBuild(f.seed, 1500)
		f.conns, f.certs, f.sent = bld.Raw.Conns, bld.Raw.Certs, map[ids.Fingerprint]bool{}
	}
	conns := f.conns[:n]
	f.conns = f.conns[n:]
	var certs []core.CertRecord
	for i := range conns {
		for _, fp := range [2]ids.Fingerprint{conns[i].ServerLeaf(), conns[i].ClientLeaf()} {
			if c := f.certs[fp]; c != nil && !f.sent[fp] {
				f.sent[fp] = true
				certs = append(certs, core.CertRecord{TS: c.NotBefore, Cert: c})
			}
		}
	}
	return certs, conns
}

// BenchmarkShardedMaterialize prices the first materialization after new
// events.
// catchup is the usual case — a fixed 1 000-connection delta appended to
// the merged view's Builder — at two window sizes, and must read flat
// across them. It appends the same 1 000 rows every time, so their
// certificates are classified already: it prices the warm path alone.
// live appends 1 000 rows no engine has seen, each preceded by the
// certificates it uses first, as a tailed log delivers them. replay is
// the rare one (the verdict grew, a late certificate, an eviction),
// which re-enriches the whole window. A read with nothing new is ~free
// and not what any of them measures.
func BenchmarkShardedMaterialize(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	certRecs := benchCertRecs(bld)
	const delta = 1000
	for _, cycles := range []int{1, 4} {
		window := cycles * len(bld.Raw.Conns)
		start := func(b *testing.B) *Engine {
			s, err := New(Config{Input: in})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			s.IngestCertBatch(certRecs)
			for c := 0; c < cycles; c++ {
				s.IngestConnBatch(bld.Raw.Conns)
			}
			s.Drain()
			s.WithPipeline(func(*core.Pipeline) {})
			return s
		}
		b.Run(fmt.Sprintf("catchup/window=%d", window), func(b *testing.B) {
			s := start(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.IngestConnBatch(bld.Raw.Conns[:delta])
				s.Drain()
				b.StartTimer()
				s.WithPipeline(func(*core.Pipeline) {})
			}
			if st := s.view.Stats(); st.Replays != 1 {
				b.Fatalf("measured %+v, want every delta appended after the first read's replay", st)
			}
		})
		b.Run(fmt.Sprintf("live/window=%d", window), func(b *testing.B) {
			s := start(b)
			feed := &liveFeed{seed: 20240504}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				certs, conns := feed.next(delta)
				s.IngestCertBatch(certs)
				s.IngestConnBatch(conns)
				s.Drain()
				b.StartTimer()
				s.WithPipeline(func(*core.Pipeline) {})
			}
			if st := s.view.Stats(); st.Replays != 1 {
				b.Fatalf("measured %+v, want every delta appended after the first read's replay", st)
			}
		})
		b.Run(fmt.Sprintf("replay/window=%d", window), func(b *testing.B) {
			s := start(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every reason costs the same replay; a loss is the one that
				// can be injected without new evidence.
				w := s.win
				w.mu.Lock()
				w.evicted++
				w.stateVer.Add(1)
				w.mu.Unlock()
				s.WithPipeline(func(*core.Pipeline) {})
			}
			if st := s.view.Stats(); st.Replays != uint64(1+b.N) {
				b.Fatalf("measured %+v, want a replay per read", st)
			}
		})
	}
}

package stream

import (
	"fmt"
	"testing"

	"repro/internal/core"
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

// BenchmarkShardedMaterialize prices the first materialization after new
// events.
// catchup is the usual case — a fixed 1 000-connection delta appended to
// the merged view's Builder — at two window sizes, and must read flat
// across them; replay is the rare one (the verdict grew, a late
// certificate, an eviction), which re-enriches the whole window. A read
// with nothing new is ~free and not what either measures.
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

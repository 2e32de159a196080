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

// BenchmarkEngineIngest is the single-engine baseline the sharded
// numbers are read against: events/op over one full feed + drain on the
// batched ingest path.
func BenchmarkEngineIngest(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	certRecs := benchCertRecs(bld)
	events := len(certRecs) + len(bld.Raw.Conns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Input: in})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(certRecs); lo += benchBatch {
			e.IngestCertBatch(certRecs[lo:min(lo+benchBatch, len(certRecs)):len(certRecs)])
		}
		for lo := 0; lo < len(bld.Raw.Conns); lo += benchBatch {
			e.IngestConnBatch(bld.Raw.Conns[lo:min(lo+benchBatch, len(bld.Raw.Conns))])
		}
		e.Drain()
		e.Close()
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkShardedIngest measures ingest throughput (feed + drain, no
// materialization) at shard counts 1/2/4/8 on the batched router path —
// one lock acquisition and one channel operation per shard per batch.
// On a single-core host the counts collapse onto the baseline; the
// shape of the scaling is only visible with cores to spend.
func BenchmarkShardedIngest(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	certRecs := benchCertRecs(bld)
	events := len(certRecs) + len(bld.Raw.Conns)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewSharded(n, Config{Input: in})
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
		})
	}
}

// BenchmarkShardedMaterialize prices the other side of the trade: the
// merged-view replay a sharded deployment pays on the first
// materialization after new events (the cached path is ~free and not
// what this measures). At shards=1 the passthrough materializes the
// single engine incrementally — no replay at all.
func BenchmarkShardedMaterialize(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := NewSharded(n, Config{Input: in})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for _, c := range bld.Raw.Certs {
				s.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
			}
			for j := range bld.Raw.Conns {
				s.IngestConn(&bld.Raw.Conns[j])
			}
			s.Drain()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.shards[0].stateVer.Add(1) // force the replay
				s.WithPipeline(func(p *core.Pipeline) { p.PreprocessReport() })
			}
		})
	}
}

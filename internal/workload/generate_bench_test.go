package workload

import (
	"testing"

	"repro/internal/scenario"
)

// BenchmarkGenerateCampus prices one FromSpec of the campus spec at the
// scale of the benchmark's steady workload, per generated connection row.
func BenchmarkGenerateCampus(b *testing.B) {
	cfg := Config{CertScale: 150}
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		build, err := FromSpec(scenario.Campus(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows += len(build.Raw.Conns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

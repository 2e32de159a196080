package stream

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
)

// BenchmarkStoreIngest prices the pluggable store on the batched hot
// path: the memory store is the refactored baseline (byte-identical
// semantics to the pre-store engine), the disk store runs under a hot
// budget far below the dataset so every iteration pays real spill
// traffic — the worst case, not the comfortable one.
func BenchmarkStoreIngest(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	certRecs := benchCertRecs(bld)
	events := len(certRecs) + len(bld.Raw.Conns)
	for _, tier := range []struct {
		name     string
		mutate   func(*Config, string)
		hotBytes int64
	}{
		{name: "store=memory", mutate: func(c *Config, dir string) {}},
		{name: "store=disk", mutate: func(c *Config, dir string) {
			c.Store = "disk"
			c.StoreDir = dir
			c.HotBytes = 1 << 20
		}},
	} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				cfg := Config{Input: in}
				tier.mutate(&cfg, dir)
				e, err := New(cfg)
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
		})
	}
}

// BenchmarkCheckpoint prices one checkpoint interval on a warm engine:
// "base" is the first write into a directory (O(state) — what a
// checkpoint format without deltas pays every interval), "delta" is a
// commit covering a 512-event interval (O(delta)).
func BenchmarkCheckpoint(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	const interval = 512
	warm := len(bld.Raw.Conns) - interval

	setup := func(b *testing.B) *Engine {
		e, err := New(Config{Input: in})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range bld.Raw.Certs {
			e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		}
		for i := 0; i < warm; i++ {
			e.IngestConn(&bld.Raw.Conns[i])
		}
		e.Drain()
		return e
	}

	b.Run("base", func(b *testing.B) {
		e := setup(b)
		defer e.Close()
		tmp := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A directory this engine has not written gets a base.
			if err := e.WriteCheckpoint(filepath.Join(tmp, strconv.Itoa(i)), nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("delta", func(b *testing.B) {
		e := setup(b)
		defer e.Close()
		dir := filepath.Join(b.TempDir(), "ckpt")
		// Base commit outside the timer: the measured op is the steady
		// state — a delta per interval, not the one-time base.
		if err := e.WriteCheckpoint(dir, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Re-ingest the same interval so every iteration has a fresh
			// ~512-record delta to commit. The retained window grows over
			// the run, which only makes the O(delta) claim harder to meet.
			for j := warm; j < warm+interval; j++ {
				e.IngestConn(&bld.Raw.Conns[j])
			}
			e.Drain()
			b.StartTimer()
			if err := e.WriteCheckpoint(dir, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer() // the deferred Close waits for a fold still running
	})
}

// BenchmarkCompact prices the background fold of a full segment chain,
// so the amortized cost hiding inside the delta path has its own
// number.
func BenchmarkCompact(b *testing.B) {
	bld := getBenchBuild()
	in := inputFromBuild(bld)
	in.Raw = nil
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{Input: in})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range bld.Raw.Certs {
			e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
		}
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("ckpt-%d", i))
		parts := ckptSlices(bld.Raw.Conns, ckptCompactEvery-1)
		for _, part := range parts {
			for j := range part {
				e.IngestConn(&part[j])
			}
			e.Drain()
			if err := e.WriteCheckpoint(dir, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := e.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
	}
}

// Streammonitor demonstrates the incremental analysis engine behind
// cmd/mtlsd: it feeds the 23-month campus dataset through
// internal/stream one event at a time, materializes Figure 1 mid-stream
// (after one year of traffic), then drains the rest and verifies the
// streamed result is identical to the batch pipeline — including across
// a checkpoint/restore cycle, the daemon's crash-recovery path. The
// engine publishes into the same metrics registry mtlsd serves on
// /metrics; the operational counters are printed at the end.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	mtls "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	build, err := mtls.Generate(nil, mtls.WithScale(1000))
	if err != nil {
		log.Fatal(err)
	}
	// The generator groups connections by scenario; a border tap delivers
	// them chronologically. Sort in place so both the stream below and the
	// batch baseline see the same realistic order.
	sort.SliceStable(build.Raw.Conns, func(i, j int) bool {
		return build.Raw.Conns[i].TS.Before(build.Raw.Conns[j].TS)
	})

	in := mtls.InputFromBuild(build)
	in.Raw = nil // the engine accumulates its own dataset
	reg := metrics.New()
	eng, err := stream.New(stream.Config{Input: in, Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Certificates first (the daemon polls x509.log before ssl.log for
	// the same reason), then the first half of the connection stream.
	for _, c := range build.Raw.Certs {
		eng.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	conns := build.Raw.Conns
	half := len(conns) / 2
	for i := 0; i < half; i++ {
		eng.IngestConn(&conns[i])
	}
	eng.Drain()

	mid := eng.Analysis()
	st := eng.Stats()
	fmt.Printf("mid-stream after %d connections (%d certificates):\n",
		st.ConnsIngested, st.UniqueCerts)
	fmt.Printf("  mTLS share: %.2f%% (first month) -> %.2f%% (current)\n",
		100*mid.Prevalence.FirstShare(), 100*mid.Prevalence.LastShare())
	fmt.Printf("  interception issuers confirmed so far: %d (%d certs excluded)\n\n",
		st.InterceptionIssuers, st.ExcludedCerts)

	// Stream the remaining half and drain.
	for i := half; i < len(conns); i++ {
		eng.IngestConn(&conns[i])
	}
	eng.Drain()

	streamed := eng.Analysis()
	batch := mtls.Analyze(build)
	fmt.Printf("after draining all %d connections:\n", len(conns))
	fmt.Printf("  mTLS share: %.2f%% -> %.2f%%\n",
		100*streamed.Prevalence.FirstShare(), 100*streamed.Prevalence.LastShare())
	fmt.Printf("  stream == batch: %v\n\n", reflect.DeepEqual(streamed, batch))

	// Crash recovery: persist, restore into a fresh engine, compare.
	dir, err := os.MkdirTemp("", "streammonitor")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "mtlsd.ckpt")
	if err := eng.WriteCheckpoint(ckpt, nil); err != nil {
		log.Fatal(err)
	}
	restored, _, err := stream.Restore(stream.Config{Input: in}, ckpt)
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	fi, _ := os.Stat(ckpt)
	fmt.Printf("checkpoint: %d bytes\n", fi.Size())
	fmt.Printf("  restored == batch: %v\n", reflect.DeepEqual(restored.Analysis(), batch))

	// The registry holds everything mtlsd would serve on /metrics:
	// ingest counters, apply-queue latency, rebuild and materialization
	// durations, checkpoint cost — one unlabelled series each.
	fmt.Println("\noperational metrics (the daemon serves these on /metrics):")
	fmt.Printf("  ingested: %d conns, %d certs; rebuilds: %d; materializations: %d\n",
		reg.Counter("stream_conns_ingested_total", "").Value(),
		reg.Counter("stream_certs_ingested_total", "").Value(),
		reg.Counter("stream_rebuilds_total", "").Value(),
		reg.Histogram("stream_materialize_seconds", "", nil).Count())
	fmt.Printf("  checkpoint writes: %d, last size: %.0f bytes\n",
		reg.Counter("stream_checkpoints_total", "").Value(),
		reg.Gauge("stream_checkpoint_bytes", "").Value())
}

// Command mtlsreport runs the full analysis pipeline and prints every
// table and figure of the paper, optionally writing the paper-vs-measured
// comparison to EXPERIMENTS.md.
//
// Usage:
//
//	mtlsreport                      # generate in memory and report
//	mtlsreport -logs ./data         # analyze logs written by mtlsgen
//	mtlsreport -json                # emit the full Analysis as JSON
//	mtlsreport -experiments EXP.md  # also write the comparison document
//	mtlsreport -workers 8           # fan the analyses out across 8 workers
//	                                # (0 = one per CPU, 1 = serial)
//	mtlsreport -timings             # print per-stage wall times to stderr
//	                                # (Prometheus text, same registry as mtlsd)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	mtls "repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	logs := flag.String("logs", "", "directory with ssl.log/x509.log (empty = generate in memory)")
	scale := flag.Int("scale", 0, "certificate scale divisor when generating")
	seed := flag.Uint64("seed", 0, "generator seed when generating")
	experiments := flag.String("experiments", "", "path to write EXPERIMENTS.md content")
	workers := flag.Int("workers", 0, "analysis workers: 0 = one per CPU, 1 = in order, n = exactly n")
	quiet := flag.Bool("quiet", false, "suppress the full table dump")
	asJSON := flag.Bool("json", false, "emit the full analysis as JSON instead of rendered tables")
	timings := flag.Bool("timings", false, "print per-stage wall times to stderr (Prometheus text format)")
	strict := flag.Bool("strict", false, "fail on the first malformed log row instead of skipping it")
	quarantine := flag.String("quarantine", "", "append rejected rows to this file (with -logs, permissive mode)")
	flag.Parse()

	// Stage timings go through the same metrics substrate the daemon
	// exposes on /metrics, so a batch run and a long-running monitor
	// report the pipeline's cost in the same series shapes.
	reg := metrics.New()
	stage := func(name string, f func()) {
		t0 := time.Now()
		f()
		reg.Gauge("report_stage_seconds", "wall time of one mtlsreport stage", "stage", name).
			Set(time.Since(t0).Seconds())
	}

	// The defaults are resolved here only so the experiments note can
	// name the scale and seed it ran at.
	def := workload.Default()
	if *scale <= 0 {
		*scale = def.CertScale
	}
	if *seed == 0 {
		*seed = def.Seed
	}

	var build *mtls.Build
	stage("generate", func() {
		var err error
		if build, err = mtls.Generate(nil, mtls.WithScale(*scale), mtls.WithSeed(*seed)); err != nil {
			log.Fatalf("mtlsreport: generate: %v", err)
		}
	})
	if *logs != "" {
		stage("open_logs", func() {
			// Permissive by default: a malformed row is skipped (and
			// summarized on stderr) rather than killing the whole run;
			// -strict restores fail-fast.
			opts := []mtls.LogOption{mtls.Permissive(), mtls.WithMetrics(reg)}
			if *strict {
				opts = []mtls.LogOption{mtls.Strict(), mtls.WithMetrics(reg)}
			}
			if *quarantine != "" {
				if *strict {
					log.Fatal("mtlsreport: -quarantine is meaningless with -strict (strict mode never skips rows)")
				}
				q, err := mtls.OpenQuarantine(*quarantine)
				if err != nil {
					log.Fatalf("mtlsreport: open quarantine: %v", err)
				}
				defer q.Close()
				opts = append(opts, mtls.WithQuarantine(q))
			}
			ds, err := mtls.OpenLogs(*logs, opts...)
			if err != nil {
				log.Fatalf("mtlsreport: open logs: %v", err)
			}
			if total, byReason := mtls.RejectTotals(reg); total > 0 {
				fmt.Fprintf(os.Stderr, "mtlsreport: skipped %d malformed log rows: %v\n", total, byReason)
			}
			build.Raw = ds
		})
	}

	var analysis *mtls.Analysis
	stage("analyze", func() { analysis = mtls.Analyze(build, mtls.WithWorkers(*workers)) })
	reg.Gauge("report_workers", "resolved pipeline worker request (0 = per CPU)").Set(float64(*workers))

	switch {
	case *asJSON:
		stage("render", func() {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(analysis); err != nil {
				log.Fatalf("mtlsreport: encode json: %v", err)
			}
		})
	case !*quiet:
		stage("render", func() { fmt.Print(mtls.Render(analysis)) })
	}
	if *experiments != "" {
		stage("experiments", func() {
			note := fmt.Sprintf("Counts are scaled by 1/%d (connection weights are unscaled); seed %d.",
				*scale, *seed)
			if err := os.WriteFile(*experiments, []byte(mtls.Experiments(analysis, note)), 0o644); err != nil {
				log.Fatalf("mtlsreport: write experiments: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *experiments)
		})
	}
	if *timings {
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			log.Fatalf("mtlsreport: write timings: %v", err)
		}
	}
}

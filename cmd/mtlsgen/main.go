// Command mtlsgen synthesizes the 23-month campus dataset and writes it as
// Zeek-style ssl.log / x509.log files.
//
// Usage:
//
//	mtlsgen -out ./data -scale 200 -seed 20240504
//	mtlsgen -out ./data -spec workload.yaml      # declarative scenario spec
//	mtlsgen -print-spec                          # emit the built-in campus
//	                                             # spec as annotated YAML
//	mtlsgen -out ./data -verify -workers 8       # re-open the logs and run the
//	                                             # pipeline over them as a check
//	                                             # (0 workers = one per CPU)
//
// Without -spec the built-in campus scenario is generated; -print-spec
// piped back through "-spec -" generates the same logs byte for byte.
// With -spec the file (or stdin, via "-spec -") describes the cohorts;
// the -scale and -seed flags still apply and override the spec's own
// seed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	mtls "repro"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "data", "output directory for ssl.log / x509.log")
	scale := flag.Int("scale", 0, "certificate scale divisor (0 = the calibrated default)")
	seed := flag.Uint64("seed", 0, "generator seed (0 = the spec's, then the campus spec's)")
	specPath := flag.String("spec", "", "scenario spec YAML file (\"-\" = stdin; empty = built-in campus spec)")
	printSpec := flag.Bool("print-spec", false, "print the built-in campus spec as annotated YAML and exit")
	verify := flag.Bool("verify", false, "re-open the written logs and run the analysis pipeline over them")
	workers := flag.Int("workers", 0, "analysis workers for -verify: 0 = one per CPU, 1 = in order, n = exactly n")
	flag.Parse()

	if *printSpec {
		fmt.Print(scenario.RenderCommented(scenario.Campus()))
		return
	}

	spec := mtls.CampusSpec()
	if *specPath != "" {
		var err error
		if spec, err = mtls.LoadSpec(*specPath); err != nil {
			log.Fatalf("mtlsgen: spec: %v", err)
		}
	}

	build, err := mtls.Generate(spec, mtls.WithScale(*scale), mtls.WithSeed(*seed))
	if err != nil {
		log.Fatalf("mtlsgen: %v", err)
	}
	if err := mtls.WriteLogs(build.Raw, *out); err != nil {
		log.Fatalf("mtlsgen: %v", err)
	}
	fmt.Fprintf(os.Stdout, "wrote %d connections and %d certificates to %s\n",
		len(build.Raw.Conns), len(build.Raw.Certs), *out)

	if *verify {
		ds, err := mtls.OpenLogs(*out)
		if err != nil {
			log.Fatalf("mtlsgen: verify: open logs: %v", err)
		}
		build.Raw = ds
		a := mtls.Analyze(build, mtls.WithWorkers(*workers))
		fmt.Fprintf(os.Stdout,
			"verified: %d raw conns, %d raw certs, %d interception issuers excluded %d certs\n",
			a.Preprocess.RawConns, a.Preprocess.RawCerts,
			len(a.Preprocess.InterceptionIssuers), a.Preprocess.ExcludedCerts)
	}
}

// Privacyscan audits a dataset for sensitive information in certificate
// CN/SAN fields — the §6 analysis as a standalone tool. Point it at logs
// written by mtlsgen, or let it generate a dataset in memory.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	mtls "repro"
	"repro/internal/infotype"
	"repro/internal/psl"
	"repro/internal/zeek"
)

func main() {
	log.SetFlags(0)
	logs := flag.String("logs", "", "directory with ssl.log/x509.log (empty = generate)")
	max := flag.Int("n", 15, "max example values to print per finding class")
	flag.Parse()

	var ds *zeek.Dataset
	if *logs != "" {
		var err error
		ds, err = mtls.OpenLogs(*logs)
		if err != nil {
			log.Fatalf("privacyscan: %v", err)
		}
	} else {
		build, err := mtls.Generate(nil, mtls.WithScale(1000))
		if err != nil {
			log.Fatalf("privacyscan: %v", err)
		}
		ds = build.Raw
	}

	cls := infotype.New(psl.Default(), []string{
		"University of Virginia", "University of Virginia Health System",
	})

	findings := map[infotype.InfoType][]string{}
	for _, cert := range ds.Certs {
		values := append([]string{cert.SubjectCN}, cert.SANDNS...)
		for _, v := range values {
			if v == "" {
				continue
			}
			switch t := cls.Classify(v, cert.IssuerKey()); t {
			case infotype.PersonalName, infotype.UserAccount, infotype.Email,
				infotype.MAC, infotype.SIP:
				findings[t] = append(findings[t], v)
			}
		}
	}

	fmt.Println("Sensitive information found in certificate CN/SAN fields:")
	order := []infotype.InfoType{
		infotype.PersonalName, infotype.UserAccount, infotype.Email,
		infotype.SIP, infotype.MAC,
	}
	for _, t := range order {
		vals := findings[t]
		fmt.Printf("\n%s: %d values\n", t, len(vals))
		sort.Strings(vals)
		vals = dedup(vals)
		limit := len(vals)
		if limit > *max {
			limit = *max
		}
		for _, v := range vals[:limit] {
			fmt.Printf("  %s\n", v)
		}
		if len(vals) > limit {
			fmt.Printf("  ... and %d more distinct values\n", len(vals)-limit)
		}
	}
	fmt.Println("\nRecommendation (§7): client certificates should carry only the")
	fmt.Println("minimum identifier needed for authentication — no PII.")
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	var prev string
	for i, v := range sorted {
		if i == 0 || v != prev {
			out = append(out, v)
		}
		prev = v
	}
	return out
}

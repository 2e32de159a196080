// Campusstudy runs the full 23-month measurement end to end — generation,
// preprocessing, every analysis — and prints Figure 1's monthly trend as
// an ASCII chart plus the per-direction stories the paper tells about it
// (the health-system surge and the Rapid7 disappearance).
package main

import (
	"fmt"
	"strings"

	mtls "repro"
	"repro/internal/stats"
)

func main() {
	build, err := mtls.Generate(nil, mtls.WithScale(500))
	if err != nil {
		panic(err)
	}
	// WithWorkers(0) fans the analyses out across one worker per CPU; the
	// Analysis equals WithWorkers(1)'s, which runs them in order.
	a := mtls.Analyze(build, mtls.WithWorkers(0))

	fmt.Println("Figure 1 — percentage of TLS connections employing mutual TLS")
	fmt.Println()
	maxShare := 0.0
	for _, p := range a.Prevalence.Overall {
		if p.Ratio() > maxShare {
			maxShare = p.Ratio()
		}
	}
	for _, p := range a.Prevalence.Overall {
		bar := int(p.Ratio() / maxShare * 50)
		fmt.Printf("%s  %5s%%  %s\n", p.Month, stats.Pct(p.Ratio()), strings.Repeat("#", bar))
	}

	fmt.Println("\nWhat moved the curve:")
	inbound := a.Prevalence.Inbound
	if len(inbound) >= 19 {
		before, during := inbound[16].Ratio(), inbound[18].Ratio()
		fmt.Printf("  inbound share %s%% (Sep 2023) -> %s%% (Nov 2023): the University\n",
			stats.Pct(before), stats.Pct(during))
		fmt.Println("  Health surge nearly doubled inbound mutual TLS (§4.1)")
	}
	outbound := a.Prevalence.Outbound
	if len(outbound) >= 19 {
		before, after := outbound[16].Ratio(), outbound[18].Ratio()
		fmt.Printf("  outbound share %s%% -> %s%%: rapid7.com traffic disappeared\n",
			stats.Pct(before), stats.Pct(after))
		fmt.Println("  from October 2023 (§4.1)")
	}

	fmt.Println("\nTop outbound SLDs over the study:")
	for _, kv := range a.Outbound.SLDShares[:min(5, len(a.Outbound.SLDShares))] {
		fmt.Printf("  %-22s %s%%\n", kv.Key,
			stats.Pct(float64(kv.Count)/float64(a.Outbound.TotalConns)))
	}

	fmt.Println("\nInbound server associations (Table 3):")
	for _, r := range a.Inbound.Rows {
		fmt.Printf("  %-22s conns %6s%%  clients %6s%%  primary issuer %s\n",
			r.Association, stats.Pct(r.ConnShare), stats.Pct(r.ClientShare), r.Primary)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

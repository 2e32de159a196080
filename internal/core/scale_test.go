package core

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// TestScaleInvariance is the DESIGN.md §5 contract: because connection
// counts are carried as weights (never divided by the scale knob), every
// percentage-denominated result must be stable across scales, while
// unique-entity counts shrink roughly linearly.
func TestScaleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full generations")
	}
	run := func(scale int) *Analysis {
		b, err := workload.FromSpec(nil, workload.Config{CertScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return Run(inputFromBuild(b))
	}
	small := run(4000)
	large := run(1000)

	closeEnough := func(name string, a, b, tol float64) {
		t.Helper()
		if math.Abs(a-b) > tol {
			t.Errorf("%s drifts across scales: %.4f vs %.4f", name, a, b)
		}
	}

	// Connection-share metrics: tight invariance (weights are unscaled;
	// the residual drift comes from per-row weight rounding).
	closeEnough("Figure 1 first month",
		small.Prevalence.FirstShare(), large.Prevalence.FirstShare(), 0.006)
	closeEnough("Figure 1 last month",
		small.Prevalence.LastShare(), large.Prevalence.LastShare(), 0.008)
	closeEnough("Table 3 health conn share",
		small.Inbound.Row(AssocHealth).ConnShare, large.Inbound.Row(AssocHealth).ConnShare, 0.03)
	closeEnough("Figure 2 amazonaws share",
		small.Outbound.SLDShare("amazonaws.com"), large.Outbound.SLDShare("amazonaws.com"), 0.03)
	closeEnough("§4.2.2 missing issuer share",
		small.Outbound.MissingIssuerShare, large.Outbound.MissingIssuerShare, 0.06)

	// Unique-cert counts scale ~linearly (floors distort the small end,
	// so allow generous bounds).
	ratio := float64(large.CertStats.Row("Total").Total) /
		float64(small.CertStats.Row("Total").Total)
	if ratio < 2.0 || ratio > 6.0 {
		t.Errorf("cert count scale ratio = %.2f, want ~4 (1000 vs 4000)", ratio)
	}

	// Shape verdicts that must hold at BOTH scales.
	for name, a := range map[string]*Analysis{"small": small, "large": large} {
		if a.Prevalence.LastShare() <= a.Prevalence.FirstShare() {
			t.Errorf("%s: trend not rising", name)
		}
		if a.SharingCross.ClientQuantiles[3] <= a.SharingCross.ServerQuantiles[3] {
			t.Errorf("%s: Table 6 tail ordering lost", name)
		}
		if _, ok := a.Serials.Inbound.Group("Globus Online", "00"); !ok {
			t.Errorf("%s: Globus serial group lost", name)
		}
	}
}

package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var cached *core.Analysis

func testAnalysis(t *testing.T) *core.Analysis {
	t.Helper()
	if cached == nil {
		b, err := workload.FromSpec(nil, workload.Config{CertScale: 2000})
		if err != nil {
			t.Fatal(err)
		}
		cached = core.Run(&core.Input{
			Raw: b.Raw, CT: b.CT, Bundle: b.Bundle,
			CampusIssuers: b.CampusIssuers,
			Assoc: core.AssocMap{
				HealthSLDs:     b.Assoc.HealthSLDs,
				UniversitySLDs: b.Assoc.UniversitySLDs,
				VPNHostPrefix:  b.Assoc.VPNHostPrefix,
				LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
				ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
				GlobusSLDs:     b.Assoc.GlobusSLDs,
			},
			Plan: b.Plan,
		})
	}
	return cached
}

func TestRenderAllSections(t *testing.T) {
	out := RenderAll(testAnalysis(t))
	for _, section := range []string{
		"Preprocessing", "Table 1", "Figure 1", "Table 2", "Table 3",
		"Figure 2", "Table 4", "§5.1.2", "Table 5", "Table 6", "Figure 3",
		"Figure 4", "Figure 5", "Table 7", "Table 8", "Table 9",
		"Table 10", "Table 13", "Table 14", "§5 takeaway",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("RenderAll missing %q", section)
		}
	}
	if strings.Contains(out, "%!") {
		t.Error("format verb leaked into output")
	}
}

// scaleFloorMisses names the paper rows that do not hold at the test
// scale (1/2000), each with why: a population the scale divisor shrinks
// to a handful of certificates cannot show the paper's share. They hold
// at 1/200 (TestCompareVerdictsAtScale200).
var scaleFloorMisses = map[string]string{
	"Table 8/client-private CN Org/Product": "the client-private population shrinks with the divisor, and at " +
		"1/2000 the share whose CN names an organization or product reads 68.84 % against the paper's 92.49 %",
}

func TestCompareVerdicts(t *testing.T) {
	rows := Compare(testAnalysis(t))
	if len(rows) != 46 {
		t.Fatalf("comparison rows = %d, want 46", len(rows))
	}
	for _, r := range rows {
		if r.Experiment == "" || r.Metric == "" || r.Paper == "" || r.Measured == "" {
			t.Errorf("incomplete row: %+v", r)
		}
		key := r.Experiment + "/" + r.Metric
		_, distorted := scaleFloorMisses[key]
		switch {
		case !r.ShapeHolds && !distorted:
			t.Errorf("%s: measured %s against the paper's %s does not hold", key, r.Measured, r.Paper)
		case r.ShapeHolds && distorted:
			t.Errorf("%s holds at the test scale now: take it off scaleFloorMisses", key)
		}
	}
}

// TestCompareVerdictsAtScale200: at 1/200 every one of the 46 rows holds.
func TestCompareVerdictsAtScale200(t *testing.T) {
	b, err := workload.FromSpec(nil, workload.Config{CertScale: 200})
	if err != nil {
		t.Fatal(err)
	}
	a := core.Run(&core.Input{
		Raw: b.Raw, CT: b.CT, Bundle: b.Bundle,
		CampusIssuers: b.CampusIssuers,
		Assoc: core.AssocMap{
			HealthSLDs:     b.Assoc.HealthSLDs,
			UniversitySLDs: b.Assoc.UniversitySLDs,
			VPNHostPrefix:  b.Assoc.VPNHostPrefix,
			LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
			ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
			GlobusSLDs:     b.Assoc.GlobusSLDs,
		},
		Plan: b.Plan,
	})
	rows := Compare(a)
	if len(rows) != 46 {
		t.Fatalf("comparison rows = %d, want 46", len(rows))
	}
	for _, r := range rows {
		if !r.ShapeHolds {
			t.Errorf("%s/%s: measured %s against the paper's %s does not hold", r.Experiment, r.Metric, r.Measured, r.Paper)
		}
	}
}

func TestExperimentsMarkdown(t *testing.T) {
	md := ExperimentsMarkdown(testAnalysis(t), "scale test")
	if !strings.Contains(md, "| Experiment | Metric | Paper | Measured |") {
		t.Fatal("markdown header missing")
	}
	if !strings.Contains(md, "scale test") {
		t.Fatal("scale note missing")
	}
	if !strings.Contains(md, "shape checks hold") {
		t.Fatal("summary missing")
	}
}

func TestFigure1Chart(t *testing.T) {
	chart := Figure1Chart(testAnalysis(t))
	lines := strings.Split(strings.TrimSpace(chart), "\n")
	if len(lines) != 23 {
		t.Fatalf("chart lines = %d, want 23 months", len(lines))
	}
	if !strings.Contains(chart, "2022-05") || !strings.Contains(chart, "2024-03") {
		t.Fatal("month range wrong")
	}
	// The last month's bar should be the longest (rising trend).
	if strings.Count(lines[len(lines)-1], "█") < strings.Count(lines[0], "█") {
		t.Fatal("trend not rising in chart")
	}
}

func TestFigure2Sankey(t *testing.T) {
	s := Figure2Sankey(testAnalysis(t))
	if !strings.Contains(s, "public") || !strings.Contains(s, "═>") {
		t.Fatalf("sankey malformed:\n%s", s)
	}
}

func TestFigure5Scatter(t *testing.T) {
	a := testAnalysis(t)
	s := Figure5Scatter(&a.Expired.Outbound, 60, 12)
	if !strings.Contains(s, "o") {
		t.Fatal("no public markers (Apple cluster missing)")
	}
	if !strings.Contains(s, "days expired") {
		t.Fatal("axis label missing")
	}
	empty := Figure5Scatter(&core.ExpiredDirection{}, 10, 5)
	if !strings.Contains(empty, "no expired") {
		t.Fatal("empty direction not handled")
	}
}

func TestFigure4CDF(t *testing.T) {
	s := Figure4CDF(testAnalysis(t))
	if !strings.Contains(s, "Cumulative") || !strings.Contains(s, "≤90d") {
		t.Fatalf("CDF malformed:\n%s", s)
	}
	// Final cumulative share must be 100%.
	if !strings.Contains(s, "100.00") {
		t.Fatal("CDF does not reach 100%")
	}
}

func TestTopIssuers(t *testing.T) {
	s := TopIssuers(testAnalysis(t), 5)
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 5 {
		t.Fatalf("TopIssuers rows wrong:\n%s", s)
	}
}

func TestConcernsRender(t *testing.T) {
	s := Concerns(testAnalysis(t))
	if !strings.Contains(s, "affected (union)") {
		t.Fatalf("concerns render malformed:\n%s", s)
	}
}

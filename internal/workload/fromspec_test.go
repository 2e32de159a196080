package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// threeCohortSpec is a non-default spec exercising every compiled knob:
// aggregate-rate splitting, all three non-baseline arrival models, three
// lifecycle shapes, and a fingerprint override.
func threeCohortSpec() *scenario.Spec {
	s, err := scenario.NewBuilder().
		Seed(7).
		AggregateRate(4_000_000).
		Cohort("fleet", scenario.ProfileIoTSharedCert, 0.5,
			scenario.Arrival(scenario.ArrivalConstant),
			scenario.Lifecycle(scenario.LifecycleDiurnal)).
		Cohort("acme", scenario.ProfileEnterpriseMiddlebox, 0.3,
			scenario.Lifecycle(scenario.LifecycleSpike),
			scenario.Window(2, 12)).
		Cohort("grid", scenario.ProfileRotationWave, 0.2,
			scenario.Arrival(scenario.ArrivalBursty),
			scenario.Lifecycle(scenario.LifecycleDrain),
			scenario.Fingerprint("chrome")).
		Build()
	if err != nil {
		panic(err)
	}
	return s
}

func TestFromSpecThreeCohorts(t *testing.T) {
	build, err := FromSpec(threeCohortSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(build.Raw.Conns) == 0 {
		t.Fatal("no connections generated")
	}

	// Every cohort contributes rows, identifiable by fingerprint preset.
	wantFP := map[string]bool{} // ja3 values seen
	var cohortW, totalW float64
	for i := range build.Raw.Conns {
		c := &build.Raw.Conns[i]
		totalW += float64(c.Weight)
		if c.JA3 != "" {
			wantFP[c.JA3] = true
			cohortW += float64(c.Weight)
		}
	}
	// fleet(iot-embedded) + acme(middlebox-proxy) + grid(chrome override)
	if len(wantFP) != 3 {
		t.Fatalf("distinct cohort JA3 fingerprints = %d, want 3", len(wantFP))
	}
	// aggregate_rate 4M against the campus baseline of 0 means all volume
	// here is cohort volume; weighted cohort volume should be near 4M
	// (rounding per-client weights skews it, but not by an order).
	if cohortW < 2_000_000 || cohortW > 8_000_000 {
		t.Fatalf("cohort weighted volume = %.0f, want ≈4M", cohortW)
	}

	// The middlebox cohort must contribute genuine CT entries for its
	// three re-signed domains.
	for _, dom := range []string{"acme-crm.com", "acme-erp.com", "acme-mail.com"} {
		if !build.CT.HasIssuer(dom, "DigiCert Inc") {
			t.Fatalf("CT missing genuine issuer for %s", dom)
		}
	}
}

// TestFromSpecDeterminism: identical spec + config → identical build.
func TestFromSpecDeterminism(t *testing.T) {
	cfg := Config{CertScale: 1500}
	a, err := FromSpec(threeCohortSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSpec(threeCohortSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Raw.Conns, b.Raw.Conns) {
		t.Fatal("conns differ across identical runs")
	}
	if !reflect.DeepEqual(a.Raw.Certs, b.Raw.Certs) {
		t.Fatal("certs differ across identical runs")
	}
}

// TestFromSpecRateFractionSplit: the weighted volume ratio between two
// cohorts tracks their rate fractions (cohort-mix invariance: doubling
// aggregate_rate scales both, preserving every share-denominated result).
func TestFromSpecRateFractionSplit(t *testing.T) {
	mk := func(rate float64) (fleetW, gridW float64) {
		s, err := scenario.NewBuilder().
			AggregateRate(rate).
			Cohort("fleet", scenario.ProfileIoTSharedCert, 0.75).
			Cohort("grid", scenario.ProfileRotationWave, 0.25).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		build, err := FromSpec(s, Config{CertScale: 1500})
		if err != nil {
			t.Fatal(err)
		}
		fleetJA3, _ := newGenerator(Config{}).helloFP("iot-embedded", "mqtt.fleet.example.net")
		for i := range build.Raw.Conns {
			c := &build.Raw.Conns[i]
			switch {
			case c.JA3 == fleetJA3:
				fleetW += float64(c.Weight)
			case c.JA3 != "":
				gridW += float64(c.Weight)
			}
		}
		return fleetW, gridW
	}
	f1, g1 := mk(2_000_000)
	f2, g2 := mk(4_000_000)
	r1 := f1 / (f1 + g1)
	r2 := f2 / (f2 + g2)
	if r1 < 0.6 || r1 > 0.9 {
		t.Fatalf("fleet share = %.3f, want ≈0.75", r1)
	}
	if diff := r1 - r2; diff < -0.05 || diff > 0.05 {
		t.Fatalf("cohort mix not invariant to aggregate rate: %.3f vs %.3f", r1, r2)
	}
}

// TestFromSpecExpiredStraggler: the profile mints client certs presented
// past NotAfter.
func TestFromSpecExpiredStraggler(t *testing.T) {
	s, err := scenario.NewBuilder().
		Cohort("old", scenario.ProfileExpiredStraggler, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	build, err := FromSpec(s, Config{CertScale: 1500})
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for _, c := range build.Raw.Certs {
		if strings.HasPrefix(c.IssuerOrg, "old Device CA") && c.NotAfter.Before(c.NotBefore.AddDate(0, 0, 366)) {
			expired++
		}
	}
	if expired == 0 {
		t.Fatal("no straggler certificates minted")
	}
}

// TestFromSpecRejectsInvalid: spec validation surfaces as an error, not a
// panic.
func TestFromSpecRejectsInvalid(t *testing.T) {
	bad := &scenario.Spec{Version: 1}
	if _, err := FromSpec(bad, Config{}); err == nil {
		t.Fatal("want error for cohortless spec")
	}
	bad2 := scenario.Campus()
	bad2.Cohorts[0].Profile = "no-such-profile"
	if _, err := FromSpec(bad2, Config{}); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

// TestArrivalJitterGated: entities without an arrival model keep midnight
// timestamps; cohort entities scatter within the day without crossing it.
func TestArrivalJitterGated(t *testing.T) {
	e := &Entity{Name: "x"}
	if off := intraDayOffset(e, 3, 7); off != 0 {
		t.Fatalf("ungated offset = %v, want 0", off)
	}
	e.Arrival = ArrivalPoisson
	for c := 0; c < 50; c++ {
		off := intraDayOffset(e, 3, c)
		if off < 0 || off.Hours() >= 24 {
			t.Fatalf("offset %v escapes the day", off)
		}
	}
	e.Diurnal = true
	day := 0
	for c := 0; c < 200; c++ {
		h := intraDayOffset(e, 1, c).Hours()
		if h >= 8 && h < 18 {
			day++
		}
	}
	if day < 100 {
		t.Fatalf("diurnal warp put only %d/200 in business hours", day)
	}
}

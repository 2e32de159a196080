package mtls

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestSpecSeedPrecedence: WithSeed beats the spec's seed, and the
// campus spec's seed is the default for no spec and for a seedless one.
func TestSpecSeedPrecedence(t *testing.T) {
	gen := func(spec *Spec, opts ...GenerateOption) *Build {
		t.Helper()
		b, err := Generate(spec, append(opts, WithScale(2000))...)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	specA, specB, seedless := CampusSpec(), CampusSpec(), CampusSpec()
	specA.Seed, specB.Seed, seedless.Seed = 1111, 2222, 0
	if !reflect.DeepEqual(gen(specA, WithSeed(2222)), gen(specB)) {
		t.Error("WithSeed(2222) over a seed-1111 spec differs from a seed-2222 spec")
	}
	def := gen(CampusSpec(), WithSeed(20240504))
	if !reflect.DeepEqual(gen(nil), def) {
		t.Error("Generate(nil) differs from the campus spec at seed 20240504")
	}
	if !reflect.DeepEqual(gen(seedless), def) {
		t.Error("a seedless spec differs from the campus spec at seed 20240504")
	}
}

// threeCohortFacadeSpec mirrors the cohort mix of cmd/mtlsd's
// TestDaemonChaos: an IoT fleet on shared certs, an interception
// middlebox, and a short-lived rotation grid, each with its own
// fingerprint preset.
func threeCohortFacadeSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := scenario.NewBuilder().
		Seed(7).
		AggregateRate(2_000_000).
		Cohort("fleet", "iot-shared-cert", 0.5,
			scenario.Arrival("constant"), scenario.Lifecycle("diurnal")).
		Cohort("acme", "enterprise-middlebox", 0.3,
			scenario.Lifecycle("spike"), scenario.Window(2, 12)).
		Cohort("grid", "rotation-wave", 0.2,
			scenario.Arrival("bursty"), scenario.Lifecycle("drain"),
			scenario.Fingerprint("chrome")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecEndToEnd drives a non-default three-cohort spec through the
// whole facade: Generate, log round-trip (extended 14-column schema),
// Analyze, and Render — fingerprints must survive every hop.
func TestSpecEndToEnd(t *testing.T) {
	build, err := Generate(threeCohortFacadeSpec(t), WithScale(2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(build.Raw.Conns) == 0 || len(build.Raw.Certs) == 0 {
		t.Fatal("empty build from three-cohort spec")
	}

	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteLogs(build.Raw, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(build.Raw.Conns, ds.Conns) {
		t.Error("ssl.log round-trip lost or altered connections (fingerprint columns?)")
	}
	if len(ds.Certs) != len(build.Raw.Certs) {
		t.Errorf("x509.log round-trip: %d certs, want %d", len(ds.Certs), len(build.Raw.Certs))
	}

	a := Analyze(build)
	if a.Fingerprints == nil || len(a.Fingerprints.Rows) < 2 {
		t.Fatalf("fingerprint report missing or too small: %+v", a.Fingerprints)
	}
	ja3s := map[string]bool{}
	for _, r := range a.Fingerprints.Rows {
		ja3s[r.JA3] = true
	}
	if len(ja3s) < 2 {
		t.Errorf("want >=2 distinct JA3 values after interception filtering, got %d", len(ja3s))
	}
	// The middlebox cohort must be caught by the CT contradiction check.
	if len(a.Preprocess.InterceptionIssuers) == 0 {
		t.Error("enterprise-middlebox cohort was not flagged as interception")
	}

	out := Render(a)
	if !strings.Contains(out, "ClientHello fingerprint prevalence") {
		t.Error("Render output lacks the fingerprint prevalence section")
	}
}

// TestSpecAnalyzeWorkersDeterminism: the spec-compiled dataset analyzes
// identically at every worker count.
func TestSpecAnalyzeWorkersDeterminism(t *testing.T) {
	build, err := Generate(threeCohortFacadeSpec(t), WithScale(2000))
	if err != nil {
		t.Fatal(err)
	}
	serial := Analyze(build, WithWorkers(1))
	for _, workers := range []int{2, 4} {
		if got := Analyze(build, WithWorkers(workers)); !reflect.DeepEqual(serial, got) {
			t.Errorf("analysis differs between 1 and %d workers", workers)
		}
	}
}

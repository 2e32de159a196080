package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// parallelBuild is the seeded dataset shared by the determinism tests.
var parallelBuild *workload.Build

func parallelInput(t *testing.T, workers int) *Input {
	t.Helper()
	if parallelBuild == nil {
		var err error
		if parallelBuild, err = workload.FromSpec(nil, workload.Config{CertScale: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	in := inputFromBuild(parallelBuild)
	in.Workers = workers
	return in
}

// TestParallelDeterminism asserts the tentpole guarantee: the sharded
// preprocess + analysis fan-out produce an Analysis deeply equal to the
// serial legacy path, for several worker counts, on the same seeded
// build. Run under -race this also exercises the parallel pipeline for
// data races.
func TestParallelDeterminism(t *testing.T) {
	serial := Run(parallelInput(t, 1))
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := Run(parallelInput(t, workers))
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("Workers=%d analysis differs from the serial pipeline", workers)
		}
	}
}

// TestCacheDeterminism asserts the hot-path caches (PSL split memo,
// issuer-classification memo) never change results.
func TestCacheDeterminism(t *testing.T) {
	cached := Run(parallelInput(t, 1))
	in := parallelInput(t, 1)
	in.NoCache = true
	if uncached := Run(in); !reflect.DeepEqual(cached, uncached) {
		t.Fatal("NoCache analysis differs from the cached pipeline")
	}
}

// TestParallelPreprocessRace drives the sharded preprocess and fan-out
// with more workers than GOMAXPROCS so go test -race interleaves them
// aggressively even on small machines.
func TestParallelPreprocessRace(t *testing.T) {
	a := Run(parallelInput(t, 8))
	if a.CertStats.Row("Total").Total == 0 {
		t.Fatal("parallel pipeline produced an empty analysis")
	}
	if a.Preprocess.TLS13ConnShare <= 0 {
		t.Fatal("parallel pipeline lost the TLS 1.3 weight accumulation")
	}
}

// TestWorkerCount pins the Workers-option semantics: 0 and negatives
// expand to GOMAXPROCS, positives are literal.
func TestWorkerCount(t *testing.T) {
	if got, want := workerCount(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := workerCount(-3), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workerCount(-3) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := workerCount(5); got != 5 {
		t.Fatalf("workerCount(5) = %d", got)
	}
}

// TestAssocIndex pins the map-based Associate against the documented
// precedence and case-insensitivity of the original linear scans.
func TestAssocIndex(t *testing.T) {
	m := &AssocMap{
		HealthSLDs:     []string{"health.edu", "shared.org"},
		UniversitySLDs: []string{"Campus.EDU", "shared.org"},
		VPNHostPrefix:  "vpn.",
		LocalOrgSLDs:   []string{"local.org"},
		ThirdPartySLDs: []string{"vendor.com"},
		GlobusSLDs:     []string{"globus.org"},
	}
	cases := []struct {
		host, sld, want string
	}{
		{"VPN.campus.edu", "campus.edu", AssocVPN},
		{"www.health.edu", "health.edu", AssocHealth},
		{"www.shared.org", "shared.org", AssocHealth}, // health precedes university
		{"www.CAMPUS.edu", "CAMPUS.edu", AssocUniversity},
		{"x.local.org", "local.org", AssocLocalOrg},
		{"x.vendor.com", "vendor.com", AssocThirdParty},
		{"x.globus.org", "globus.org", AssocGlobus},
		{"x.other.net", "other.net", AssocUnknown},
		{"", "", AssocUnknown},
	}
	for _, c := range cases {
		if got := m.Associate(c.host, c.sld); got != c.want {
			t.Errorf("Associate(%q, %q) = %q, want %q", c.host, c.sld, got, c.want)
		}
	}
}

// TestRunAllMatchesIndividual ensures the fan-out driver assembles the
// same Analysis as calling each pipeline stage by hand.
func TestRunAllMatchesIndividual(t *testing.T) {
	in := parallelInput(t, 4)
	p := NewPipeline(in)
	fanned := p.RunAll()
	if fanned.Versions == nil || fanned.Concerns == nil || fanned.Serials == nil {
		t.Fatal("RunAll left analysis fields unset")
	}
	if !reflect.DeepEqual(fanned.Versions, p.Versions()) {
		t.Fatal("fanned-out Versions differs from direct call")
	}
	if !reflect.DeepEqual(fanned.Inbound, p.Inbound()) {
		t.Fatal("fanned-out Inbound differs from direct call")
	}
}

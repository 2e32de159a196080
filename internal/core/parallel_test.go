package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/ids"
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

// TestParallelDeterminism asserts the fan-out guarantee: RunAll across
// several worker counts produces an Analysis deeply equal to running the
// analyses in order, on the same seeded build. Run under -race this also
// exercises the fan-out for data races.
func TestParallelDeterminism(t *testing.T) {
	serial := Run(parallelInput(t, 1))
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := Run(parallelInput(t, workers))
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("Workers=%d analysis differs from the in-order analyses", workers)
		}
	}
}

// TestCacheDeterminism asserts the enricher's hot-path caches never
// change a value. Over a Builder fed the whole build, every memoized PSL
// split and subnet equals the uncached function's, and every
// certificate's class, category and dummy-issuer flag equal what the
// unmemoized classifiers compute from the chain of its earliest
// connection. The usage list and map hold the same entries.
func TestCacheDeterminism(t *testing.T) {
	in := parallelInput(t, 1)
	b := NewBuilder(in)
	for _, c := range in.Raw.Certs {
		b.AddCert(c)
	}
	for i := range in.Raw.Conns {
		b.AddConn(&in.Raw.Conns[i])
	}
	w := b.w

	// Every SNI was split while enriching, so probing them reads the
	// cache; the certificate names cover the SNI-less fallback's keys.
	probe := func(host string) {
		if got, want := w.split.Split(host), b.e.psl.Split(host); got != want {
			t.Errorf("cached split of %q = %+v, want %+v", host, got, want)
		}
	}
	cached := w.split.Len()
	for i := range in.Raw.Conns {
		probe(in.Raw.Conns[i].SNI)
	}
	if w.split.Len() != cached {
		t.Fatal("an SNI the enricher saw was not in its split cache")
	}
	for _, c := range in.Raw.Certs {
		probe(c.SubjectCN)
		for _, name := range c.SANDNS {
			probe(name)
		}
	}

	if len(w.subnets) == 0 {
		t.Fatal("the subnet memo is empty")
	}
	for ip, k := range w.subnets {
		if want := ids.SubnetOfString(ip); k != want {
			t.Errorf("cached subnet of %q = %v, want %v", ip, k, want)
		}
	}

	// A certificate is classified from the chain of its earliest
	// connection by (TS, UID), server side before client side.
	type presentation struct {
		rec   *ConnRecord
		chain []ids.Fingerprint
	}
	earliest := map[ids.Fingerprint]presentation{}
	presented := func(u *certUsage, rec *ConnRecord, chain []ids.Fingerprint) {
		if u == nil {
			return
		}
		if p, ok := earliest[u.cert.Fingerprint]; !ok || connBefore(rec, p.rec) {
			earliest[u.cert.Fingerprint] = presentation{rec, chain}
		}
	}
	for i := range b.e.conns {
		cv := &b.e.conns[i]
		presented(cv.server, cv.rec, cv.rec.ServerChain)
		presented(cv.client, cv.rec, cv.rec.ClientChain)
	}
	if len(w.usage.list) == 0 || len(w.usage.list) != len(w.usage.byFP) {
		t.Fatalf("usage list holds %d entries, map %d", len(w.usage.list), len(w.usage.byFP))
	}
	for i, u := range w.usage.list {
		fp := u.cert.Fingerprint
		if u.pos != i || w.usage.byFP[fp] != u {
			t.Fatalf("%s: list position %d, entry says %d", fp, i, u.pos)
		}
		var rest []ids.Fingerprint
		if chain := earliest[fp].chain; len(chain) > 1 {
			rest = chain[1:]
		}
		class := in.Bundle.ClassifyLeaf(u.cert, rest)
		category := b.e.cls.CategoryWith(nil, u.cert, rest)
		dummy := (*classify.Memo)(nil).IsDummyIssuer(u.cert.IssuerOrg)
		if u.class != class || u.category != category || u.dummyIssuer != dummy {
			t.Errorf("%s: cached (class %v, category %v, dummy %v), uncached (%v, %v, %v)",
				fp, u.class, u.category, u.dummyIssuer, class, category, dummy)
		}
	}
}

// TestParallelPreprocessRace drives the analysis fan-out with more
// workers than GOMAXPROCS so go test -race interleaves the analyses
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

package workload

import (
	"fmt"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/netsim"
)

// testBuild generates the campus dataset at 1/2000, small and fast for
// unit tests; seed 0 keeps the campus seed.
func testBuild(t *testing.T, seed uint64) *Build {
	t.Helper()
	b, err := FromSpec(nil, Config{Seed: seed, CertScale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateDeterministic(t *testing.T) {
	b1 := testBuild(t, 0)
	b2 := testBuild(t, 0)
	if len(b1.Raw.Conns) != len(b2.Raw.Conns) {
		t.Fatalf("conn counts differ: %d vs %d", len(b1.Raw.Conns), len(b2.Raw.Conns))
	}
	if len(b1.Raw.Certs) != len(b2.Raw.Certs) {
		t.Fatalf("cert counts differ: %d vs %d", len(b1.Raw.Certs), len(b2.Raw.Certs))
	}
	for i := range b1.Raw.Conns {
		a, b := b1.Raw.Conns[i], b2.Raw.Conns[i]
		if a.UID != b.UID || a.SNI != b.SNI || a.Weight != b.Weight ||
			a.ServerLeaf() != b.ServerLeaf() || a.ClientLeaf() != b.ClientLeaf() {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	b1 := testBuild(t, 0)
	b2 := testBuild(t, 999)
	same := 0
	n := len(b1.Raw.Conns)
	if len(b2.Raw.Conns) < n {
		n = len(b2.Raw.Conns)
	}
	for i := 0; i < n; i++ {
		if b1.Raw.Conns[i].UID == b2.Raw.Conns[i].UID {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical UIDs")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	b := testBuild(t, 0)
	ds := b.Raw
	if len(ds.Conns) == 0 || len(ds.Certs) == 0 {
		t.Fatal("empty dataset")
	}
	var mutual, nonMutual, tls13 int64
	var mutualW, totalW int64
	plan := b.Plan
	for i := range ds.Conns {
		c := &ds.Conns[i]
		totalW += c.Weight
		if c.Version == "TLSv13" {
			tls13 += c.Weight
			continue
		}
		if c.IsMutual() {
			mutual++
			mutualW += c.Weight
		} else {
			nonMutual++
		}
		// Every row crosses the border.
		d := plan.DirectionOf(c.OrigIP, c.RespIP)
		if d != netsim.Inbound && d != netsim.Outbound {
			t.Fatalf("row does not cross border: %+v -> %v", c, d)
		}
	}
	if mutual == 0 || nonMutual == 0 || tls13 == 0 {
		t.Fatalf("population missing: mutual=%d nonmutual=%d tls13=%d", mutual, nonMutual, tls13)
	}
	// Overall mTLS share should be small (paper: ~2-3.6%).
	share := float64(mutualW) / float64(totalW)
	if share < 0.01 || share > 0.08 {
		t.Fatalf("overall mTLS share = %.4f, want ~0.02-0.04", share)
	}
}

func TestGenerateKeyEntitiesPresent(t *testing.T) {
	b := testBuild(t, 0)
	var globusSerial00, incorrectDates, expired, dummy, shared int
	for _, c := range b.Raw.Certs {
		if c.SerialHex == "00" && c.IssuerOrg == "Globus Online" {
			globusSerial00++
		}
		if c.HasIncorrectDates() {
			incorrectDates++
		}
		if c.ExpiredAt(certmodel.DayToTime(0)) && !c.HasIncorrectDates() {
			expired++
		}
		if c.IssuerOrg == "Internet Widgits Pty Ltd" || c.IssuerOrg == "Unspecified" {
			dummy++
		}
	}
	for i := range b.Raw.Conns {
		c := &b.Raw.Conns[i]
		if c.IsMutual() && c.ServerLeaf() == c.ClientLeaf() {
			shared++
		}
	}
	if globusSerial00 < 10 {
		t.Errorf("globus serial-00 certs = %d, want many (reissuance)", globusSerial00)
	}
	if incorrectDates < 20 {
		t.Errorf("incorrect-date certs = %d", incorrectDates)
	}
	if expired < 20 {
		t.Errorf("already-expired certs = %d", expired)
	}
	if dummy < 10 {
		t.Errorf("dummy-issuer certs = %d", dummy)
	}
	if shared < 50 {
		t.Errorf("same-connection shared-cert conns = %d", shared)
	}
}

func TestGenerateCTSeeded(t *testing.T) {
	b := testBuild(t, 0)
	if b.CT.Size() == 0 {
		t.Fatal("CT log empty")
	}
	// The public cloud domains must be logged with their true issuers.
	if !b.CT.HasIssuer("amazonaws.com", "Amazon") {
		t.Fatal("amazonaws.com not logged")
	}
	if !b.CT.HasIssuer("rapid7.com", "DigiCert Inc") {
		t.Fatal("rapid7.com not logged")
	}
}

func TestGenerateInterceptionPresent(t *testing.T) {
	b := testBuild(t, 0)
	count := 0
	for _, c := range b.Raw.Certs {
		if len(c.IssuerOrg) > 13 && c.IssuerOrg[:13] == "SecureInspect" {
			count++
		}
	}
	share := float64(count) / float64(len(b.Raw.Certs))
	if share < 0.05 || share > 0.13 {
		t.Fatalf("interception cert share = %.4f (count %d), want ~0.084", share, count)
	}
}

func TestRapid7Disappears(t *testing.T) {
	b := testBuild(t, 0)
	for i := range b.Raw.Conns {
		c := &b.Raw.Conns[i]
		if c.SNI == "endpoint.rapid7.com" && monthOf(c.TS) > 16 {
			t.Fatalf("rapid7 connection after month 16: %v", c.TS)
		}
	}
}

func TestCertPlanReissue(t *testing.T) {
	p := &CertPlan{ReissueDays: 14}
	if p.reissueIndex(0, 0) != 0 || p.reissueIndex(0, 13) != 0 {
		t.Fatal("first period wrong")
	}
	if p.reissueIndex(0, 14) != 1 || p.reissueIndex(0, 700) != 50 {
		t.Fatal("reissue arithmetic wrong")
	}
	p0 := &CertPlan{}
	if p0.reissueIndex(0, 500) != 0 {
		t.Fatal("static plan must never reissue")
	}
}

func TestCertPlanMintValidityModes(t *testing.T) {
	rng := ids.NewRNG(5)
	normal := (&CertPlan{ValidityDays: 100, CN: []Content{{Kind: KindText, Text: "x", Weight: 1}}}).
		mint(rng, "e", "k", 0, 0, 100)
	if normal.HasIncorrectDates() {
		t.Fatal("normal cert has incorrect dates")
	}
	if normal.ValidityDays() != 100 {
		t.Fatalf("validity = %d", normal.ValidityDays())
	}

	bad := (&CertPlan{IncorrectDates: true, IncorrectNotBeforeYear: 2020, IncorrectNotAfterYear: 1850}).
		mint(rng, "e", "k", 0, 0, 100)
	if !bad.HasIncorrectDates() {
		t.Fatal("incorrect-dates plan minted a valid window")
	}

	exp := (&CertPlan{ValidityDays: 365, ExpiredMinDays: 950, ExpiredMaxDays: 1050}).
		mint(rng, "e", "k", 0, 0, 300)
	days := exp.DaysExpiredAt(certmodel.DayToTime(300))
	if days < 950 || days > 1050 {
		t.Fatalf("days expired at first use = %d, want ~1000", days)
	}

	long := (&CertPlan{ValidityDays: 365, LongValidityShare: 1, LongValidityMin: 10000, LongValidityMax: 10001}).
		mint(rng, "e", "k", 0, 0, 100)
	if long.ValidityDays() < 9999 {
		t.Fatalf("long validity = %d", long.ValidityDays())
	}
}

func TestCertPlanFixedSerialAndWeakKey(t *testing.T) {
	rng := ids.NewRNG(6)
	p := &CertPlan{SerialFixed: "024680", WeakRSAShare: 1, ValidityDays: 10}
	c := p.mint(rng, "e", "k", 0, 0, 0)
	if c.SerialHex != "024680" {
		t.Fatalf("serial = %q", c.SerialHex)
	}
	if !c.WeakKey() {
		t.Fatal("weak key share = 1 should mint 1024-bit RSA")
	}
}

func TestQuantileSpread(t *testing.T) {
	if quantileSpread(0.1, 1, 2, 43, 1851) != 1 {
		t.Fatal("median wrong")
	}
	if quantileSpread(0.6, 1, 2, 43, 1851) != 2 {
		t.Fatal("75th wrong")
	}
	if got := quantileSpread(0.9999, 1, 2, 43, 1851); got != 1851 {
		t.Fatalf("max = %d", got)
	}
	mid := quantileSpread(0.9, 1, 2, 43, 1851)
	if mid < 2 || mid > 43 {
		t.Fatalf("interpolated = %d", mid)
	}
}

func TestMonthOf(t *testing.T) {
	if monthOf(certmodel.DayToTime(0)) != 0 {
		t.Fatal("month 0 wrong")
	}
	if monthOf(certmodel.DayToTime(31)) != 1 {
		t.Fatal("month 1 wrong")
	}
	if got := monthOf(certmodel.DayToTime(699)); got != 22 {
		t.Fatalf("last month = %d", got)
	}
}

func TestContentRenderKinds(t *testing.T) {
	rng := ids.NewRNG(9)
	if got := (Content{Kind: KindText, Text: "WebRTC"}).render(nil, rng, 0); got != "WebRTC" {
		t.Fatalf("text = %q", got)
	}
	if got := (Content{Kind: KindUUID}).render(nil, rng, 0); len(got) != 36 {
		t.Fatalf("uuid = %q", got)
	}
	if got := (Content{Kind: KindRandomHex, N: 8}).render(nil, rng, 0); len(got) != 8 {
		t.Fatalf("hex = %q", got)
	}
	if got := (Content{Kind: KindMAC}).render(nil, rng, 0); len(got) != 17 {
		t.Fatalf("mac = %q", got)
	}
	if got := (Content{Kind: KindUserAccount}).render(nil, rng, 0); len(got) < 4 || len(got) > 7 {
		t.Fatalf("user account = %q", got)
	}
	if got := (Content{Kind: KindEmpty}).render(nil, rng, 0); got != "" {
		t.Fatalf("empty = %q", got)
	}
}

func TestRosterValidates(t *testing.T) {
	if err := Validate(Entities()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Entity)
	}{
		{"no name", func(e *Entity) { e.Name = "" }},
		{"no conns", func(e *Entity) { e.Conns = 0 }},
		{"no ports", func(e *Entity) { e.Ports = nil }},
		{"inverted range", func(e *Entity) { e.Ports = []PortWeight{{Port: 500, PortHigh: 400, Weight: 1}} }},
		{"no client plan", func(e *Entity) { e.ClientPlan = nil }},
		{"shared with server plan", func(e *Entity) { e.SharedCert = true }},
		{"bad window", func(e *Entity) { e.StartMonth = 40 }},
		{"bad plan2 share", func(e *Entity) { e.ClientPlan2 = e.ClientPlan; e.ClientPlan2Share = 2 }},
		{"empty CN dist", func(e *Entity) { e.ClientPlan = &CertPlan{ValidityDays: 10} }},
		{"sanfill no san", func(e *Entity) {
			e.ClientPlan = &CertPlan{ValidityDays: 10, SANFill: 0.5,
				CN: []Content{{Kind: KindText, Text: "x", Weight: 1}}}
		}},
		{"reissue beyond validity", func(e *Entity) {
			e.ClientPlan = &CertPlan{ValidityDays: 10, ReissueDays: 20,
				CN: []Content{{Kind: KindText, Text: "x", Weight: 1}}}
		}},
	}
	for _, tc := range cases {
		e := Entity{
			Name: "probe", Conns: 100,
			Ports:      []PortWeight{{Port: 443, Weight: 1}},
			Clients:    10,
			ServerPlan: privateServerPlan("X", "x.com"),
			ClientPlan: corpClientPlan("X Corp"),
		}
		tc.mutate(&e)
		if err := Validate([]Entity{e}); err == nil {
			t.Errorf("%s: Validate accepted a broken roster", tc.name)
		}
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	mk := func() Entity {
		return Entity{
			Name: "dup", Conns: 1,
			Ports:      []PortWeight{{Port: 443, Weight: 1}},
			Clients:    1,
			ServerPlan: privateServerPlan("X", "x.com"),
			ClientPlan: corpClientPlan("X Corp"),
		}
	}
	if err := Validate([]Entity{mk(), mk()}); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

// TestAppendHelpersMatchFmt holds the generator's append helpers to the
// fmt verbs they replaced.
func TestAppendHelpersMatchFmt(t *testing.T) {
	rng := ids.NewRNG(3)
	for i := 0; i < 20000; i++ {
		n := int(rng.Int63n(2_000_000)) - 1_000_000
		if i%2 == 0 {
			n %= 100_000
		}
		for _, w := range []int{2, 3, 4, 6} {
			if got, want := string(appendPadded(nil, n, w)), fmt.Sprintf("%0*d", w, n); got != want {
				t.Fatalf("appendPadded(%d, %d) = %q, want %q", n, w, got, want)
			}
		}
		if got, want := string(appendHost(nil, n, "x.edu")), fmt.Sprintf("host%04d.%s", n%9999, "x.edu"); got != want {
			t.Fatalf("appendHost(%d) = %q, want %q", n, got, want)
		}
		v := rng.Uint64() >> uint(rng.Intn(64))
		if got, want := string(appendSerialHex(nil, v)), fmt.Sprintf("%016X", v); got != want {
			t.Fatalf("appendSerialHex(%#x) = %q, want %q", v, got, want)
		}
	}
}

package core

import (
	"testing"

	"repro/internal/interception"
	"repro/internal/workload"
)

// inputFromBuild adapts a workload build (duplicated from the facade to
// keep core tests self-contained).
func inputFromBuild(b *workload.Build) *Input {
	return &Input{
		Raw:           b.Raw,
		CT:            b.CT,
		Bundle:        b.Bundle,
		CampusIssuers: b.CampusIssuers,
		Assoc: AssocMap{
			HealthSLDs:     b.Assoc.HealthSLDs,
			UniversitySLDs: b.Assoc.UniversitySLDs,
			VPNHostPrefix:  b.Assoc.VPNHostPrefix,
			LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
			ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
			GlobusSLDs:     b.Assoc.GlobusSLDs,
		},
		Plan: b.Plan,
	}
}

var cachedAnalysis *Analysis

func analysis(t *testing.T) *Analysis {
	t.Helper()
	if cachedAnalysis == nil {
		b, err := workload.FromSpec(nil, workload.Config{CertScale: 500})
		if err != nil {
			t.Fatal(err)
		}
		cachedAnalysis = Run(inputFromBuild(b))
	}
	return cachedAnalysis
}

func TestPreprocessFindsInterception(t *testing.T) {
	a := analysis(t)
	if len(a.Preprocess.InterceptionIssuers) < 8 {
		t.Fatalf("interception issuers = %d, want ~12", len(a.Preprocess.InterceptionIssuers))
	}
	if a.Preprocess.ExcludedShare < 0.04 || a.Preprocess.ExcludedShare > 0.14 {
		t.Fatalf("excluded share = %.4f, want ~0.084", a.Preprocess.ExcludedShare)
	}
	// TLS 1.3 opacity ~40.86% of conn weight.
	if a.Preprocess.TLS13ConnShare < 0.30 || a.Preprocess.TLS13ConnShare > 0.50 {
		t.Fatalf("TLS 1.3 share = %.4f, want ~0.41", a.Preprocess.TLS13ConnShare)
	}
}

func TestTable1Shape(t *testing.T) {
	a := analysis(t)
	cs := a.CertStats
	total := cs.Row("Total")
	if total.Total == 0 {
		t.Fatal("no certs")
	}
	// Paper: 59.43% of all certs participate in mTLS.
	if s := total.MutualShare(); s < 0.40 || s > 0.75 {
		t.Errorf("total mutual share = %.4f, want ~0.59", s)
	}
	// Server certs: public CA mTLS share ~0.22% (tiny); private ~82.78%.
	sp := cs.Row("Server - Public CA")
	if s := sp.MutualShare(); s > 0.05 {
		t.Errorf("server-public mutual share = %.4f, want ~0.002", s)
	}
	spr := cs.Row("Server - Private CA")
	if s := spr.MutualShare(); s < 0.60 {
		t.Errorf("server-private mutual share = %.4f, want ~0.83", s)
	}
	// Client certs: ~94.34% used in mTLS.
	cl := cs.Row("Client")
	if s := cl.MutualShare(); s < 0.85 {
		t.Errorf("client mutual share = %.4f, want ~0.94", s)
	}
	// Private CA dominates client certs.
	cpr := cs.Row("Client - Private CA")
	if float64(cpr.Total) < 0.9*float64(cl.Total) {
		t.Errorf("client private = %d of %d, want ~99%%", cpr.Total, cl.Total)
	}
}

func TestFigure1Trend(t *testing.T) {
	a := analysis(t)
	p := a.Prevalence
	if len(p.Overall) != 23 {
		t.Fatalf("months = %d, want 23", len(p.Overall))
	}
	first, last := p.FirstShare(), p.LastShare()
	if first < 0.012 || first > 0.030 {
		t.Errorf("first-month share = %.4f, want ~0.0199", first)
	}
	if last < 0.028 || last > 0.048 {
		t.Errorf("last-month share = %.4f, want ~0.0361", last)
	}
	if last <= first {
		t.Errorf("mTLS share must grow: %.4f -> %.4f", first, last)
	}
}

func TestTable2Services(t *testing.T) {
	a := analysis(t)
	s := a.Services
	if len(s.MutualInbound) == 0 || s.MutualInbound[0].PortLabel != "443" {
		t.Fatalf("inbound mTLS top port = %+v, want 443", s.MutualInbound)
	}
	fw, ok := Find(s.MutualInbound, "20017")
	if !ok || fw.Share < 0.15 || fw.Share > 0.35 {
		t.Errorf("FileWave 20017 share = %+v, want ~0.249", fw)
	}
	if _, ok := Find(s.MutualInbound, "636"); !ok {
		t.Error("LDAPS 636 missing from inbound top-5")
	}
	if s.MutualOutbound[0].PortLabel != "443" {
		t.Errorf("outbound mTLS top port = %s", s.MutualOutbound[0].PortLabel)
	}
	if s.NonMutualOutbound[0].PortLabel != "443" || s.NonMutualOutbound[0].Share < 0.95 {
		t.Errorf("outbound non-mTLS 443 = %+v, want ~0.99", s.NonMutualOutbound[0])
	}
	if fw.Service != "Corp. - FileWave" {
		t.Errorf("service name = %q", fw.Service)
	}
}

func TestTable3Inbound(t *testing.T) {
	a := analysis(t)
	in := a.Inbound
	health := in.Row(AssocHealth)
	if health.ConnShare < 0.50 || health.ConnShare > 0.80 {
		t.Errorf("health conn share = %.4f, want ~0.649", health.ConnShare)
	}
	if health.Primary != "Private - Education" {
		t.Errorf("health primary issuer = %q, want Education", health.Primary)
	}
	univ := in.Row(AssocUniversity)
	if univ.ConnShare < 0.20 || univ.ConnShare > 0.42 {
		t.Errorf("university conn share = %.4f, want ~0.306", univ.ConnShare)
	}
	if univ.Primary != "Private - MissingIssuer" {
		t.Errorf("university primary issuer = %q, want MissingIssuer", univ.Primary)
	}
	vpn := in.Row(AssocVPN)
	if vpn.ConnShare > 0.02 {
		t.Errorf("vpn conn share = %.4f, want ~0.003", vpn.ConnShare)
	}
	if vpn.ClientShare < 0.08 {
		t.Errorf("vpn client share = %.4f, want ~0.147", vpn.ClientShare)
	}
	local := in.Row(AssocLocalOrg)
	if local.Primary != "Public" {
		t.Errorf("local org primary issuer = %q, want Public", local.Primary)
	}
	unknown := in.Row(AssocUnknown)
	if unknown.ClientShare < 0.20 {
		t.Errorf("unknown client share = %.4f, want ~0.366", unknown.ClientShare)
	}
}

func TestFigure2Outbound(t *testing.T) {
	a := analysis(t)
	out := a.Outbound
	if s := out.SLDShare("amazonaws.com"); s < 0.18 || s > 0.40 {
		t.Errorf("amazonaws share = %.4f, want ~0.285", s)
	}
	if s := out.SLDShare("rapid7.com"); s < 0.15 || s > 0.40 {
		t.Errorf("rapid7 share = %.4f, want ~0.274", s)
	}
	if s := out.SLDShare("gpcloudservice.com"); s < 0.07 || s > 0.22 {
		t.Errorf("gpcloud share = %.4f, want ~0.133", s)
	}
	if out.MissingIssuerShare < 0.20 || out.MissingIssuerShare > 0.55 {
		t.Errorf("missing issuer share = %.4f, want ~0.378", out.MissingIssuerShare)
	}
	if out.PublicServerMissingClientShare < 0.25 || out.PublicServerMissingClientShare > 0.65 {
		t.Errorf("public-server missing-client share = %.4f, want ~0.457",
			out.PublicServerMissingClientShare)
	}
	if len(out.Flows) == 0 {
		t.Fatal("no flows")
	}
}

func TestTable4Dummies(t *testing.T) {
	a := analysis(t)
	d := a.DummyIssuers
	var sawUnspecified, sawWidgitsClient, sawWidgitsServer bool
	for _, r := range d.Rows {
		if r.IssuerOrg == "Unspecified" && r.Side == "client" && r.Direction == "inbound" {
			sawUnspecified = true
		}
		if r.IssuerOrg == "Internet Widgits Pty Ltd" && r.Side == "client" && r.Direction == "outbound" {
			sawWidgitsClient = true
		}
		if r.IssuerOrg == "Internet Widgits Pty Ltd" && r.Side == "server" && r.Direction == "outbound" {
			sawWidgitsServer = true
		}
	}
	if !sawUnspecified || !sawWidgitsClient || !sawWidgitsServer {
		t.Errorf("dummy rows missing: unspecified=%v widgitsC=%v widgitsS=%v (rows=%d)",
			sawUnspecified, sawWidgitsClient, sawWidgitsServer, len(d.Rows))
	}
	if len(d.BothEndpoints) < 2 {
		t.Errorf("both-endpoint dummies = %d, want >=2 (fireboard, aws)", len(d.BothEndpoints))
	}
	if d.Version1Certs == 0 {
		t.Error("no version-1 dummy certs found")
	}
	if d.WeakKeyCerts == 0 {
		t.Error("no weak-key dummy certs found")
	}
}

func TestSerialCollisions(t *testing.T) {
	a := analysis(t)
	s := a.Serials
	g, ok := s.Inbound.Group("Globus Online", "00")
	if !ok {
		t.Fatal("Globus serial-00 group missing")
	}
	if g.ClientCerts < 10 || g.ServerCerts < 10 {
		t.Errorf("Globus certs = %d/%d, want many reissues", g.ClientCerts, g.ServerCerts)
	}
	if g.MaxValidityDays > 15 {
		t.Errorf("Globus validity = %d days, want 14", g.MaxValidityDays)
	}
	if _, ok := s.Inbound.Group("ViptelaClient", "024680"); !ok {
		t.Error("ViptelaClient serial-024680 group missing")
	}
	gc, ok := s.Outbound.Group("GuardiCore", "01")
	if !ok {
		t.Fatal("GuardiCore client serial group missing")
	}
	if gc.MaxValidityDays < 730 {
		t.Errorf("GuardiCore validity = %d, want >2y", gc.MaxValidityDays)
	}
	if _, ok := s.Outbound.Group("GuardiCore", "03E8"); !ok {
		t.Error("GuardiCore server serial group missing")
	}
	if s.Inbound.ClientsInvolved == 0 || s.Outbound.ClientsInvolved == 0 {
		t.Error("no clients involved in collisions")
	}
}

func TestTable5SharingSame(t *testing.T) {
	a := analysis(t)
	sh := a.SharingSame
	if sh.InboundConns == 0 || sh.OutboundConns == 0 {
		t.Fatalf("shared conns: in=%d out=%d", sh.InboundConns, sh.OutboundConns)
	}
	// Globus missing-SNI rows exist in both directions.
	if _, ok := sh.Row("inbound", "- (missing SNI)"); !ok {
		t.Error("inbound Globus shared row missing")
	}
	if _, ok := sh.Row("outbound", "- (missing SNI)"); !ok {
		t.Error("outbound Globus shared row missing")
	}
	// Outset Medical (tablodash.com) is the biggest inbound client pop.
	row, ok := sh.Row("inbound", "tablodash.com")
	if !ok {
		t.Fatal("tablodash row missing")
	}
	if row.IssuerKey != "Outset Medical" {
		t.Errorf("tablodash issuer = %q", row.IssuerKey)
	}
	// Public-issuer reuse rows exist (splunkcloud is private; check the
	// cross-shared pool covers public reuse in Table 6 instead).
	if _, ok := sh.Row("outbound", "splunkcloud.com"); !ok {
		t.Error("splunkcloud shared row missing")
	}
}

func TestTable6SubnetSpread(t *testing.T) {
	a := analysis(t)
	cr := a.SharingCross
	if cr.Certs < 35 {
		t.Fatalf("cross-shared certs = %d", cr.Certs)
	}
	// Shapes: median 1 subnet both roles; client tail ≫ server tail.
	if cr.ServerQuantiles[0] != 1 || cr.ClientQuantiles[0] != 1 {
		t.Errorf("medians = %v / %v, want 1", cr.ServerQuantiles[0], cr.ClientQuantiles[0])
	}
	if cr.ClientQuantiles[2] <= cr.ServerQuantiles[2] {
		t.Errorf("99th: client %d should exceed server %d",
			cr.ClientQuantiles[2], cr.ServerQuantiles[2])
	}
	if cr.ClientQuantiles[3] <= cr.ServerQuantiles[3] {
		t.Errorf("max: client %d should exceed server %d",
			cr.ClientQuantiles[3], cr.ServerQuantiles[3])
	}
	// Let's Encrypt intermediates dominate the issuer mix.
	if len(cr.IssuerShares) == 0 || cr.IssuerShares[0].Key != "R3" {
		t.Errorf("top issuer = %+v, want R3 (Let's Encrypt)", cr.IssuerShares)
	}
}

func TestFigure3BadDates(t *testing.T) {
	a := analysis(t)
	bd := a.BadDates
	if bd.Certs == 0 {
		t.Fatal("no incorrect-date certs")
	}
	var idrive, sds bool
	for _, r := range bd.BothEndpoints {
		if r.SLD == "idrive.com" {
			idrive = true
		}
		if r.SLD == "- (missing SNI)" && r.ClientIssuer == "SDS" {
			sds = true
		}
	}
	if !idrive || !sds {
		t.Errorf("both-endpoint groups: idrive=%v sds=%v (%+v)", idrive, sds, bd.BothEndpoints)
	}
	var honeywell bool
	for _, r := range bd.Rows {
		if r.IssuerKey == "Honeywell International Inc" && r.Side == "client" {
			honeywell = true
		}
	}
	if !honeywell {
		t.Error("Honeywell incorrect-date clients missing")
	}
}

func TestFigure4Validity(t *testing.T) {
	a := analysis(t)
	v := a.Validity
	if v.ExtremeCount < 8 {
		t.Errorf("extreme-validity certs = %d", v.ExtremeCount)
	}
	// The single longest validity: ~83,432 days at tmdxdev.com.
	if v.MaxValidityDays < 80000 {
		t.Errorf("max validity = %d days, want ~83,432", v.MaxValidityDays)
	}
	if v.MaxValiditySLD != "tmdxdev.com" {
		t.Errorf("max validity SLD = %q", v.MaxValiditySLD)
	}
	// Outbound has the long tail; inbound does not.
	if v.OutboundHist.Bucket(4)+v.OutboundHist.Bucket(5) == 0 {
		t.Error("outbound 10k-40k bucket empty")
	}
	if v.InboundHist.Bucket(5) > v.OutboundHist.Bucket(5) {
		t.Error("inbound should not exceed outbound in the extreme bucket")
	}
	// MissingIssuer should lead the extreme-validity category mix.
	if len(v.ExtremeCategories) == 0 {
		t.Fatal("no extreme categories")
	}
}

func TestFigure5Expired(t *testing.T) {
	a := analysis(t)
	ex := a.Expired
	if len(ex.Inbound.Points) == 0 || len(ex.Outbound.Points) == 0 {
		t.Fatalf("expired points: in=%d out=%d", len(ex.Inbound.Points), len(ex.Outbound.Points))
	}
	if ex.Outbound.AppleCluster < 5 {
		t.Errorf("Apple cluster = %d, want scaled ~337", ex.Outbound.AppleCluster)
	}
	if ex.Outbound.MicrosoftCount < 1 {
		t.Errorf("Microsoft expired = %d, want 2", ex.Outbound.MicrosoftCount)
	}
	// Inbound association mix: VPN should lead.
	if len(ex.Inbound.AssocShares) == 0 || ex.Inbound.AssocShares[0].Key != AssocVPN {
		t.Errorf("inbound expired assoc = %+v, want VPN first", ex.Inbound.AssocShares)
	}
}

func TestTable7Utilization(t *testing.T) {
	a := analysis(t)
	u := a.Utilization
	for _, label := range []string{"Server certs.", "Client certs."} {
		row := u.Row(label)
		if row.CNShare() < 0.95 {
			t.Errorf("%s CN share = %.4f, want ~0.998", label, row.CNShare())
		}
	}
	// Private-CA SAN utilization is tiny; public-CA SAN near 100%.
	sp := u.Row("Server - Private CA")
	if sp.SANShare() > 0.05 {
		t.Errorf("server-private SAN share = %.4f, want ~0.004", sp.SANShare())
	}
	pub := u.Row("Server - Public CA")
	if pub.SANShare() < 0.90 {
		t.Errorf("server-public SAN share = %.4f, want ~1.0", pub.SANShare())
	}
}

func TestTable8Contents(t *testing.T) {
	a := analysis(t)
	c := a.Contents
	// Server-public CN: overwhelmingly domains.
	if s := c.Share("CN", "server-public", "Domain"); s < 0.90 {
		t.Errorf("server-public domain CN share = %.4f, want ~1.0", s)
	}
	// Server-private CN: Org/Product dominates (WebRTC).
	if s := c.Share("CN", "server-private", "Org/Product"); s < 0.60 {
		t.Errorf("server-private org CN share = %.4f, want ~0.79", s)
	}
	// Client-private CN: Org/Product ~92.5%, PersonalName ~1.3%, user
	// accounts present.
	if s := c.Share("CN", "client-private", "Org/Product"); s < 0.75 {
		t.Errorf("client-private org CN share = %.4f, want ~0.92", s)
	}
	if c.CN["client-private"]["Personal name"] == 0 {
		t.Error("no personal names in client-private CNs")
	}
	if c.CN["client-private"]["User account"] == 0 {
		t.Error("no user accounts in client-private CNs")
	}
	if c.CN["client-private"]["SIP"] == 0 {
		t.Error("no SIP in client-private CNs")
	}
	// Client-public CN: unidentified dominates (Azure Sphere etc.).
	if s := c.Share("CN", "client-public", "Unidentified"); s < 0.35 {
		t.Errorf("client-public unidentified CN share = %.4f, want ~0.60", s)
	}
}

func TestTable9Unidentified(t *testing.T) {
	a := analysis(t)
	u := a.Unidentified
	if u.Totals["server-private-CN"] == 0 {
		t.Fatal("no unidentified server-private CNs")
	}
	// Random dominates server-private CN unidentified strings (80%).
	nonRandom := u.Share("server-private-CN", "Non-random")
	if nonRandom > 0.45 {
		t.Errorf("server-private non-random share = %.4f, want ~0.20", nonRandom)
	}
	if u.Buckets["server-private-CN"]["Random - strlen = 8"] == 0 {
		t.Error("no len-8 random bucket")
	}
	// Client-public unidentified: recognizable issuers (Azure Sphere,
	// Apple iPhone) dominate.
	if s := u.Share("client-public-CN", "Random - by Issuer"); s < 0.30 {
		t.Errorf("client-public by-issuer share = %.4f, want ~0.60", s)
	}
}

func TestTable13SharedInfo(t *testing.T) {
	a := analysis(t)
	si := a.SharedInfo
	if si.Certs == 0 {
		t.Fatal("no shared certs")
	}
	if si.PrivateShare < 0.90 {
		t.Errorf("shared private share = %.4f, want ~0.997", si.PrivateShare)
	}
	// CN filled on nearly all; SAN nearly none.
	util := si.Utilization[0]
	if util.CNShare() < 0.90 {
		t.Errorf("shared CN share = %.4f", util.CNShare())
	}
	if util.SANShare() > 0.10 {
		t.Errorf("shared SAN share = %.4f, want ~0.004", util.SANShare())
	}
	// Unidentified dominates shared-cert CNs (84.88%).
	if si.CNTotals["private"] > 0 {
		unid := float64(si.CN["private"]["Unidentified"]) / float64(si.CNTotals["private"])
		if unid < 0.55 {
			t.Errorf("shared unidentified CN share = %.4f, want ~0.85", unid)
		}
	}
}

func TestTable14NonMutual(t *testing.T) {
	a := analysis(t)
	nm := a.NonMutual
	if nm.PublicShare < 0.70 || nm.PublicShare > 0.95 {
		t.Errorf("non-mutual public share = %.4f, want ~0.85", nm.PublicShare)
	}
	util := nm.Utilization[0]
	if util.CNShare() < 0.95 {
		t.Errorf("non-mutual CN share = %.4f, want ~0.9995", util.CNShare())
	}
	// Private SAN ~10.5%, much higher than the mutual case.
	var priv UtilizationRow
	for _, r := range nm.Utilization {
		if r.Label == "Private CA" {
			priv = r
		}
	}
	if priv.SANShare() < 0.05 || priv.SANShare() > 0.20 {
		t.Errorf("non-mutual private SAN share = %.4f, want ~0.105", priv.SANShare())
	}
}

func TestSANTypesDisparity(t *testing.T) {
	a := analysis(t)
	s := a.SANTypes
	if s.Total == 0 {
		t.Fatal("no certs")
	}
	// §6.1.2: IP / Email / URI SAN types are ~99% empty; DNS is the
	// (comparatively) populated one.
	if s.EmptyShare(s.IP) < 0.95 || s.EmptyShare(s.Email) < 0.95 || s.EmptyShare(s.URI) < 0.95 {
		t.Fatalf("explicit SAN types should be ~99%% empty: ip=%f email=%f uri=%f",
			s.EmptyShare(s.IP), s.EmptyShare(s.Email), s.EmptyShare(s.URI))
	}
	if s.DNS <= s.IP {
		t.Fatal("SAN DNS should dominate the explicit types")
	}
}

func TestDurations(t *testing.T) {
	a := analysis(t)
	d := a.Durations
	if d.Client.Total() == 0 || d.Server.Total() == 0 {
		t.Fatal("no durations")
	}
	// Globus's 14-day certs give a short-lived mass; campus certs span
	// the study. Quantiles must be monotone with a long tail.
	q := d.ClientQuantiles
	if q[0] > q[1] || q[1] > q[2] || q[2] > q[3] {
		t.Fatalf("quantiles not monotone: %v", q)
	}
	if q[3] < 600 {
		t.Fatalf("max client activity = %d days, want ~700 (whole study)", q[3])
	}
}

func TestVersionMix(t *testing.T) {
	a := analysis(t)
	v := a.Versions
	// §3.3: TLS 1.3 is ~40.86% of connections.
	if s := v.Share("TLSv13"); s < 0.30 || s > 0.50 {
		t.Fatalf("TLS 1.3 share = %f, want ~0.41", s)
	}
	if s := v.Share("TLSv12"); s < 0.45 {
		t.Fatalf("TLS 1.2 share = %f", s)
	}
}

func TestConcernsAggregation(t *testing.T) {
	a := analysis(t)
	c := a.Concerns
	if c.MutualTotal == 0 || c.AffectedTotal == 0 {
		t.Fatal("concerns empty")
	}
	if c.AffectedTotal > c.MutualTotal {
		t.Fatal("union exceeds denominator")
	}
	// Every individual concern is bounded by the union only when disjoint;
	// at minimum each must be <= MutualTotal and the union >= the largest.
	max := c.MissingClientIssuer
	for _, v := range []int64{c.DummyIssuer, c.SerialCollision, c.SharedSameConn,
		c.IncorrectDates, c.ExpiredClientCert, c.WeakKey} {
		if v > c.MutualTotal {
			t.Fatalf("concern %d exceeds total %d", v, c.MutualTotal)
		}
		if v > max {
			max = v
		}
	}
	if c.AffectedTotal < max {
		t.Fatalf("union %d below largest concern %d", c.AffectedTotal, max)
	}
	// The §5 practices are a visible minority, not the whole population.
	if share := c.AffectedShare(); share <= 0 || share > 0.8 {
		t.Fatalf("affected share = %f", share)
	}
}

// TestPreprocessAdmitsInPlace holds the batch path to the one admission
// rule: every view NewPipeline builds points into in.Raw.Conns itself, in
// dataset order, and holds every connection but those whose server leaf
// the §3.2 verdict excludes; no excluded certificate resolves or has a
// usage entry.
func TestPreprocessAdmitsInPlace(t *testing.T) {
	b, err := workload.FromSpec(nil, workload.Config{CertScale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	in := inputFromBuild(b)
	p := NewPipeline(in)
	res := interception.NewDetector(in.Bundle, in.CT).Run(in.Raw)
	if len(res.ExcludedCerts) == 0 {
		t.Fatal("the fixture excludes no certificate")
	}
	raw := in.Raw.Conns
	pos := make(map[*ConnRecord]int, len(raw))
	admitted := 0
	for i := range raw {
		pos[&raw[i]] = i
		if !res.Excludes(raw[i].ServerLeaf()) {
			admitted++
		}
	}
	if len(p.e.conns) != admitted {
		t.Fatalf("%d views, want the %d connections the verdict admits", len(p.e.conns), admitted)
	}
	last := -1
	for i := range p.e.conns {
		cv := &p.e.conns[i]
		k, ok := pos[cv.rec]
		if !ok {
			t.Fatalf("view %d points outside in.Raw.Conns", i)
		}
		if k <= last {
			t.Fatalf("view %d is raw connection %d, after %d", i, k, last)
		}
		last = k
		if res.Excludes(cv.rec.ServerLeaf()) {
			t.Fatalf("view %d has the excluded server leaf %s", i, cv.rec.ServerLeaf())
		}
		for _, u := range [2]*certUsage{cv.server, cv.client} {
			if u != nil && res.Excludes(u.cert.Fingerprint) {
				t.Fatalf("view %d resolved the excluded certificate %s", i, u.cert.Fingerprint)
			}
		}
	}
	for fp := range res.ExcludedCerts {
		if p.e.ds.Cert(fp) != nil || p.e.usage.byFP[fp] != nil {
			t.Fatalf("the excluded certificate %s resolves", fp)
		}
	}
}

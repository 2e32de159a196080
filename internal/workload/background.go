package workload

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/zeek"
)

// registerCT logs genuine public issuances so the interception detector
// has a comparison set. Only external public domains are logged; campus
// private domains stay out of CT, mirroring reality (private CAs do not
// log) and keeping the detector honest.
func (g *Generator) registerCT(e *Entity) {
	if e.ServerPlan == nil || e.ServerPlan.IssuerOrg == "" {
		return
	}
	if !g.bundle.IsPublicIssuer(e.ServerPlan.IssuerOrg) {
		return
	}
	sld := g.psl.SLD(e.SNI)
	if sld == "" {
		return
	}
	g.ctlog.AddChain(ct.Entry{
		Domain:    sld,
		IssuerOrg: e.ServerPlan.IssuerOrg,
		IssuerCN:  e.ServerPlan.IssuerCN,
		LoggedAt:  certmodel.DayToTime(monthFirstDay(e.StartMonth)),
	})
}

// emitCrossShared generates Table 6's population: certificates observed as
// server certificates in some connections and client certificates in
// others, spread over /24 subnets with the paper's heavy-tailed quantiles
// (server 1/1/7/217, client 1/2/43/1851).
func (g *Generator) emitCrossShared() {
	n := g.crossSharedCerts()
	rng := g.rng.Fork("cross-shared")

	type issuer struct {
		org, cn string
		w       float64
	}
	issuers := []issuer{
		{"Let's Encrypt", "R3", 0.5158},
		{"DigiCert Inc", "DigiCert SHA2 Extended Validation Server CA", 0.1434},
		{"Sectigo Limited", "Sectigo RSA Domain Validation Secure Server CA", 0.0795},
		{"GoDaddy.com, Inc.", "GoDaddy Secure Certificate Authority - G2", 0.0613},
		{"GlobalSign", "GlobalSign GCC R3 DV TLS CA", 0.20},
	}
	pool := g.slotsOf("cross-shared", "pool")
	helperCli, helperSrv := g.slotsOf("cross-shared", "helper-cli"), g.slotsOf("cross-shared", "helper-srv")
	helperCliPlan := &CertPlan{
		IssuerOrg: campusCA, IssuerCN: campusCA + " Issuing CA", ValidityDays: 730,
		CN: []Content{{Kind: KindUserAccount, Weight: 1}},
	}
	helperSrvPlan := privateServerPlan("CrossShared Peer Systems", "crossshared.net")
	devices, peers := g.alloc.CampusDevices("crossshared/cli"), g.alloc.ExternalHosts("crossshared/peer")
	for i := 0; i < n; i++ {
		iss := issuers[ids.WeightedPickBy(rng, issuers, func(is *issuer) float64 { return is.w })]
		domain := fmt.Sprintf("svc%04d.crossshared.net", i)
		plan := &CertPlan{
			IssuerOrg: iss.org, IssuerCN: iss.cn, ValidityDays: 900,
			CN:      []Content{{Kind: KindDomain, Text: domain, Weight: 1}},
			SANFill: 1, SAN: []Content{{Kind: KindDomain, Text: domain, Weight: 1}},
		}
		cert := g.cert(pool, plan, i, 0, 30)
		helper := g.cert(helperCli, helperCliPlan, i%40, 0, 30)
		srvSubnets, cliSubnets := crossSpread(i, n)

		// The certificate serves as a SERVER certificate from srvSubnets
		// distinct /24s (inbound-style conns to it)...
		srvHosts := g.alloc.ExternalHosts("crossshared/srv" + strconv.Itoa(i))
		for s := 0; s < srvSubnets; s++ {
			ts := certmodel.DayToTime(40 + (i+s)%500)
			g.ds.Conns = append(g.ds.Conns, zeek.SSLRecord{
				TS: ts, UID: g.uid(),
				OrigIP:   devices.At(i),
				OrigPort: uint16(40000 + s%20000),
				RespIP:   srvHosts.OnceInSubnet(s, i),
				RespPort: 443, Version: "TLSv12", SNI: domain, Established: true,
				ServerChain: g.chain(cert.Fingerprint),
				ClientChain: g.chain(helper.Fingerprint),
				Weight:      2,
			})
		}
		// ...and as a CLIENT certificate from cliSubnets distinct campus
		// /24s in OUTBOUND connections (the reused-server-cert-as-client
		// pattern of §5.2.2); outbound placement keeps Table 3's inbound
		// client census clean.
		cliHosts := g.alloc.CampusSubnetHosts("crossshared/cli" + strconv.Itoa(i))
		peer := g.cert(helperSrv, helperSrvPlan, i%6, 0, 30)
		for cIdx := 0; cIdx < cliSubnets; cIdx++ {
			ts := certmodel.DayToTime(60 + (i+cIdx)%500)
			g.ds.Conns = append(g.ds.Conns, zeek.SSLRecord{
				TS: ts, UID: g.uid(),
				OrigIP:   cliHosts.OnceInSubnet(cIdx, cIdx),
				OrigPort: uint16(40000 + cIdx%20000),
				RespIP:   peers.InSubnet(i%9, i),
				RespPort: 443, Version: "TLSv12", SNI: "peer.crossshared.net", Established: true,
				ServerChain: g.chain(peer.Fingerprint),
				ClientChain: g.chain(cert.Fingerprint),
				Weight:      2,
			})
		}
	}
}

// crossSharedCerts is the size of Table 6's cross-shared population.
func (g *Generator) crossSharedCerts() int { return g.cfg.scaled(1611, 40) }

// crossSpread is how many /24s cross-shared certificate #i of n is
// presented from, as a server and as a client.
func crossSpread(i, n int) (srv, cli int) {
	rank := float64(i) / float64(n)
	return quantileSpread(rank, 1, 1, 7, 217), quantileSpread(rank, 1, 2, 43, 1851)
}

// crossSharedRows is how many ssl.log rows emitCrossShared appends.
func (g *Generator) crossSharedRows() int {
	n, rows := g.crossSharedCerts(), 0
	for i := 0; i < n; i++ {
		srv, cli := crossSpread(i, n)
		rows += srv + cli
	}
	return rows
}

// quantileSpread maps a rank in [0,1) onto a distribution hitting the
// given 50th/75th/99th/100th percentile targets.
func quantileSpread(rank float64, q50, q75, q99, q100 int) int {
	switch {
	case rank < 0.50:
		return q50
	case rank < 0.75:
		return q75
	case rank < 0.99:
		// Interpolate between q75 and q99.
		f := (rank - 0.75) / 0.24
		return q75 + int(f*float64(q99-q75))
	case rank < 0.999:
		f := (rank - 0.99) / 0.009
		return q99 + int(f*float64(q100-q99)/4)
	default:
		return q100
	}
}

// emitInterception injects the TLS-interception population the §3.2
// preprocessing must find and exclude: private "inspection" CAs re-signing
// popular public domains whose genuine issuers are in CT. Roughly 8.4% of
// all unique certificates end up intercepted, matching the paper.
func (g *Generator) emitInterception() {
	rng := g.rng.Fork("interception")
	// Target count: x/(total+x) = 8.4%  →  x ≈ 0.0917 × current total.
	target := int(0.0917 * float64(len(g.minted)))
	const proxies = 12
	perProxy := target/proxies + 1
	// Every remaining row is counted now: this population and the
	// background after it.
	g.growConns(proxies*perProxy + g.backgroundRows())
	// One plan per proxy, its content re-pointed at each domain: mint
	// reads the plan and keeps nothing of it.
	content := []Content{{Kind: KindDomain, Weight: 1}}
	devices, servers := g.alloc.CampusDevices("intercept/cli"), g.alloc.ExternalHosts("intercept/srv")
	for p := 0; p < proxies; p++ {
		proxyOrg := fmt.Sprintf("SecureInspect Gateway %02d", p)
		plan := &CertPlan{
			IssuerOrg: proxyOrg, IssuerCN: proxyOrg + " Root",
			ValidityDays: 30, CN: content, SANFill: 1, SAN: content,
		}
		slots := g.slotsOf("intercept", "p"+strconv.Itoa(p))
		for i := 0; i < perProxy; i++ {
			var buf [32]byte
			www := g.strs.Cut(append(appendPadded(append(buf[:0], "www.site"...), (p*perProxy+i)%4000, 4), ".com"...))
			// CT knows the genuine issuer.
			g.ctlog.AddChain(ct.Entry{Domain: www[len("www."):], IssuerOrg: "DigiCert Inc"})
			content[0].Text = www
			cert := g.cert(slots, plan, i, 0, 20+i%600)
			ts := certmodel.DayToTime(20 + (i*13)%650)
			g.ds.Conns = append(g.ds.Conns, zeek.SSLRecord{
				TS: ts, UID: g.uid(),
				OrigIP:   devices.At(i % 500),
				OrigPort: uint16(32768 + rng.Intn(20000)),
				RespIP:   servers.At(i),
				RespPort: 443, Version: "TLSv12", SNI: www,
				Established: true,
				ServerChain: g.chain(cert.Fingerprint),
				Weight:      3,
			})
		}
	}
}

// backgroundPops are the non-mutual certificate populations (Table 14;
// unscaled counts from §6.3.6: 85% public). Each population carries a
// direction and port mix from Table 2's non-mutual columns.
func backgroundPops() []nmPop {
	inPorts := []PortWeight{
		{Port: 443, Weight: 85.18}, {Port: 25, Weight: 2.35},
		{Port: 33854, Weight: 2.26}, {Port: 8443, Weight: 2.22},
		{Port: 52730, Weight: 1.98}, {Port: 993, Weight: 1.5},
		{Port: 8080, Weight: 1.2}, {Port: 9443, Weight: 1.0},
	}
	outPorts := []PortWeight{
		{Port: 443, Weight: 99.15}, {Port: 993, Weight: 0.44},
		{Port: 8883, Weight: 0.05}, {Port: 25, Weight: 0.04},
		{Port: 3128, Weight: 0.03},
	}
	return []nmPop{
		{
			name: "nm-out-public", certs: 3_000_000, volume: 1, ports: outPorts,
			plan: &CertPlan{
				IssuerOrg: "Let's Encrypt", IssuerCN: "R3", ValidityDays: 90,
				CN:      []Content{{Kind: KindHost, Text: "popular-sites.com", Weight: 1}},
				SANFill: 0.9999,
				SAN:     []Content{{Kind: KindHost, Text: "popular-sites.com", Weight: 1}},
			},
		},
		{
			name: "nm-in-public", inbound: true, certs: 170_000, volume: 0.7, ports: inPorts,
			plan: &CertPlan{
				IssuerOrg: "Sectigo Limited", ValidityDays: 398,
				CN:      []Content{{Kind: KindHost, Text: univSLD, Weight: 1}},
				SANFill: 0.9999,
				SAN:     []Content{{Kind: KindHost, Text: univSLD, Weight: 1}},
			},
		},
		{
			name: "nm-in-private", inbound: true, certs: 340_000, volume: 0.3, ports: inPorts,
			plan: &CertPlan{
				IssuerOrg: campusCA, IssuerCN: campusCA + " Issuing CA",
				ValidityDays: 1825,
				CN: []Content{ // Table 14b's private column
					{Kind: KindHost, Text: univSLD, Weight: 0.1327},
					{Kind: KindText, Text: "WebRTC", Weight: 0.42},
					{Kind: KindText, Text: "twilio", Weight: 0.17},
					{Kind: KindText, Text: "hangouts", Weight: 0.14},
					{Kind: KindText, Text: "hmpp", Weight: 0.022},
					{Kind: KindText, Text: "Dtls", Weight: 0.021},
					{Kind: KindRandomHex, N: 8, Weight: 0.035},
					{Kind: KindRandomAlnum, N: 16, Weight: 0.032},
					{Kind: KindSIP, Text: "voip." + univSLD, Weight: 0.0121},
					{Kind: KindIP, Weight: 0.005},
					{Kind: KindLocalhost, Weight: 0.0029},
					{Kind: KindPersonName, Weight: 0.0011},
					{Kind: KindUserAccount, Weight: 0.0004},
				},
				SANFill: 0.1054,
				SAN: []Content{
					{Kind: KindHost, Text: univSLD, Weight: 0.72},
					{Kind: KindRandomAlnum, N: 16, Weight: 0.267},
					{Kind: KindText, Text: "WebRTC", Weight: 0.025},
					{Kind: KindLocalhost, Weight: 0.0107},
					{Kind: KindIP, Weight: 0.0126},
				},
			},
		},
		{
			name: "nm-out-private", certs: 200_000, volume: 0.002, ports: outPorts,
			plan: &CertPlan{
				IssuerOrg: "DvTel", ValidityDays: 1825,
				CN: []Content{
					{Kind: KindText, Text: "WebRTC", Weight: 0.45},
					{Kind: KindHost, Text: "dvtelcam.net", Weight: 0.18},
					{Kind: KindRandomHex, N: 8, Weight: 0.15},
					{Kind: KindText, Text: "hmpp", Weight: 0.1},
					{Kind: KindSIP, Text: "cam.dvtelcam.net", Weight: 0.06},
					{Kind: KindLocalhost, Weight: 0.03},
					{Kind: KindIP, Weight: 0.03},
				},
				SANFill: 0.1054,
				SAN: []Content{
					{Kind: KindHost, Text: "dvtelcam.net", Weight: 0.72},
					{Kind: KindRandomAlnum, N: 16, Weight: 0.28},
				},
			},
		},
	}
}

// emitBackground fills in the non-mutual and TLS 1.3 traffic so Figure 1's
// denominator (total TLS connections) follows the calibrated share curve
// from startShare to endShare, and emits the non-mutual server-certificate
// populations Table 14 analyzes.
func (g *Generator) emitBackground() {
	// Monthly mutual-TLS weight from everything generated so far.
	mutual := make([]float64, studyMonths)
	for i := range g.ds.Conns {
		c := &g.ds.Conns[i]
		if c.IsMutual() && c.Established {
			m := monthOf(c.TS)
			if m >= 0 && m < studyMonths {
				mutual[m] += float64(c.Weight)
			}
		}
	}
	t0 := mutual[0] / startShare
	tN := mutual[studyMonths-1] / endShare
	total := func(m int) float64 {
		return t0 + (tN-t0)*float64(m)/float64(studyMonths-1)
	}

	pops := backgroundPops()

	// Distribute each population's certificates over the months and give
	// the rows the weight needed to hit the Figure 1 denominator.
	volSum := map[bool]float64{}
	for _, p := range pops {
		volSum[p.inbound] += p.volume
	}
	// A variable, so 1-tls13 is float64 arithmetic; the constant
	// expression 1-tls13Share is exact and one ulp lower, which could
	// flip a rounded weight.
	tls13 := float64(tls13Share)
	for _, pop := range pops {
		perMonth := g.perMonth(pop)
		rng := g.rng.Fork("bg/" + pop.name)
		slots := g.slotsOf(pop.name, "srv")
		var cli, srv *netsim.Hosts
		if pop.inbound {
			cli, srv = g.alloc.ExternalHosts(pop.name+"/cli"), g.alloc.CampusServers(pop.name)
		} else {
			cli, srv = g.alloc.CampusDevices(pop.name+"/cli"), g.alloc.ExternalHosts(pop.name+"/srv")
		}
		// Row i of every month names the same SNI.
		snis := make([]string, perMonth)
		for i := range snis {
			snis[i] = g.sniFor(pop.plan, i)
		}
		idx := 0
		for m := 0; m < studyMonths; m++ {
			// This population's share of month m's non-mutual volume.
			nonMutual := total(m) * (1 - tls13)
			nonMutual -= mutual[m]
			if nonMutual < 0 {
				nonMutual = 0
			}
			volume := nonMutual * pop.volume / volSum[pop.inbound]
			if pop.inbound {
				volume *= 0.25
			} else {
				volume *= 0.75
			}
			w := int64(math.Round(volume / float64(perMonth)))
			if w < 1 {
				w = 1
			}
			day := monthFirstDay(m)
			for i := 0; i < perMonth; i++ {
				cert := g.cert(slots, pop.plan, idx, 0, day)
				idx++
				ts := certmodel.DayToTime(day + (i*5)%27)
				var origIP, respIP string
				if pop.inbound {
					origIP, respIP = cli.At(i), srv.At(i%40)
				} else {
					origIP, respIP = cli.At(i%200), srv.Once(idx)
				}
				g.ds.Conns = append(g.ds.Conns, zeek.SSLRecord{
					TS: ts, UID: g.uid(),
					OrigIP: origIP, OrigPort: uint16(32768 + rng.Intn(28000)),
					RespIP: respIP, RespPort: g.pickPort(rng, pop.ports),
					Version: "TLSv12", SNI: snis[i],
					Established: rng.Float64() > 0.02,
					ServerChain: g.chain(cert.Fingerprint),
					Weight:      w,
				})
			}
		}
	}

	// TLS 1.3 opacity: 40.86% of ALL connections, certificate-free rows.
	rng := g.rng.Fork("bg/tls13")
	extCli, campusSrv := g.alloc.ExternalHosts("tls13/cli"), g.alloc.CampusServers("tls13")
	campusCli, extSrv := g.alloc.CampusDevices("tls13/cli"), g.alloc.ExternalHosts("tls13/srv")
	var snis [tls13Rows]string
	for i := range snis {
		snis[i] = fmt.Sprintf("edge%02d.cdn13.net", i)
	}
	for m := 0; m < studyMonths; m++ {
		volume := total(m) * tls13Share
		w := int64(math.Round(volume / tls13Rows))
		if w < 1 {
			w = 1
		}
		day := monthFirstDay(m)
		for i := 0; i < tls13Rows; i++ {
			inbound := i%4 == 0
			var origIP, respIP string
			if inbound {
				origIP, respIP = extCli.At(i), campusSrv.At(i%20)
			} else {
				origIP, respIP = campusCli.At(i%200), extSrv.At(i)
			}
			g.ds.Conns = append(g.ds.Conns, zeek.SSLRecord{
				TS: certmodel.DayToTime(day + (i*3)%27), UID: g.uid(),
				OrigIP: origIP, OrigPort: uint16(32768 + rng.Intn(28000)),
				RespIP: respIP, RespPort: 443,
				Version: "TLSv13", SNI: snis[i],
				Established: true,
				Weight:      w,
			})
		}
	}
}

// tls13Rows is how many certificate-free TLS 1.3 rows stand for each
// month's TLS 1.3 volume.
const tls13Rows = 24

// perMonth is how many of pop's certificates are first used each month.
func (g *Generator) perMonth(pop nmPop) int {
	return max(g.cfg.scaled(pop.certs, 40)/studyMonths, 1)
}

// backgroundRows is how many ssl.log rows emitBackground appends.
func (g *Generator) backgroundRows() int {
	rows := tls13Rows * studyMonths
	for _, pop := range backgroundPops() {
		rows += g.perMonth(pop) * studyMonths
	}
	return rows
}

// nmPop is one non-mutual certificate population.
type nmPop struct {
	name    string
	inbound bool
	certs   int
	volume  float64 // share of the direction's non-mutual volume
	ports   []PortWeight
	plan    *CertPlan
}

// sniFor is the SNI of a background population's row i.
func (g *Generator) sniFor(plan *CertPlan, i int) string {
	if len(plan.CN) > 0 && (plan.CN[0].Kind == KindHost || plan.CN[0].Kind == KindDomain) {
		var buf [64]byte
		return g.strs.Cut(appendHost(buf[:0], i, plan.CN[0].Text))
	}
	return ""
}

// monthOf maps a timestamp to its study-month index.
func monthOf(ts time.Time) int {
	y, m, _ := ts.Date()
	e := certmodel.StudyEpoch
	return (y-e.Year())*12 + int(m) - int(e.Month())
}

package workload

import (
	"math"
	"strconv"
	"time"

	"repro/internal/arena"
	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/psl"
	"repro/internal/tlswire"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// Generator materializes the entity roster into a zeek.Dataset.
type Generator struct {
	cfg    Config
	rng    *ids.RNG
	alloc  *netsim.Allocator
	bundle *truststore.Bundle
	ctlog  *ct.Log
	psl    *psl.List
	ds     *zeek.Dataset

	slots   map[[2]string]*certSlots // each (entity, kind)'s cache
	minted  []*certmodel.CertInfo    // every minted certificate, in mint order
	uidRNG  *ids.RNG
	fpCache map[string][2]string

	key    []byte               // scratch for RNG fork labels and memo keys
	chains []ids.Fingerprint    // current block of one-certificate chains
	certs  []certmodel.CertInfo // current block of minted certificates
	strs   arena.Strings        // the strings of certificates and rows
}

// certSlots caches the certificates of one (entity, kind), resolved once
// per entity or population so that a row looks its certificate up by
// integers: round 0 by holder in dense slots, later re-issuance rounds
// by (holder, round).
type certSlots struct {
	prefix []byte // "<entity>/<kind>/", the RNG fork label's head
	first  []*certmodel.CertInfo
	later  map[[2]int]*certmodel.CertInfo
}

// Block sizes: how many one-certificate chains, and how many
// certificates, share an allocation.
const (
	chainBlock = 4096
	certBlock  = 512
)

// newGenerator prepares a generator for a resolved cfg (see FromSpec).
func newGenerator(cfg Config) *Generator {
	root := ids.NewRNG(cfg.Seed)
	return &Generator{
		cfg:     cfg,
		rng:     root.Fork("workload"),
		alloc:   netsim.NewAllocator(netsim.DefaultPlan()),
		bundle:  truststore.DefaultBundle(),
		ctlog:   ct.NewLog(),
		psl:     psl.Default(),
		ds:      &zeek.Dataset{},
		slots:   make(map[[2]string]*certSlots),
		uidRNG:  root.Fork("uids"),
		fpCache: make(map[string][2]string),
	}
}

// run is FromSpec's synthesis core: extra CT entries first (they never
// touch the RNG streams), then the entity roster in order, then the
// cross-entity populations.
func (g *Generator) run(entities []Entity, extraCT []ct.Entry) *Build {
	for _, en := range extraCT {
		g.ctlog.AddChain(en)
	}
	// Every row up to the interception population is counted here; that
	// population's size depends on the certificates minted before it, so
	// emitInterception grows the slice to its final length.
	rows := g.crossSharedRows()
	for i := range entities {
		rows += g.entityRows(&entities[i])
	}
	g.growConns(rows)
	for _, e := range entities {
		g.emitEntity(&e)
	}
	g.emitCrossShared()
	g.emitInterception()
	g.emitBackground()
	g.ds.Certs = certIndex(g.minted)
	return &Build{
		Raw:           g.ds,
		CT:            g.ctlog,
		Bundle:        g.bundle,
		CampusIssuers: CampusIssuers(),
		Assoc:         DefaultAssoc(),
		Plan:          g.alloc.Plan(),
	}
}

// monthFirstDay returns the study-day offset of month m's first day.
func monthFirstDay(m int) int {
	if m >= 0 && m < len(studyMonthDays) {
		return studyMonthDays[m]
	}
	return computeMonthFirstDay(m)
}

// studyMonthDays holds monthFirstDay of every study month, which the
// per-connection populations look up on every row.
var studyMonthDays = func() (days [studyMonths]int) {
	for m := range days {
		days[m] = computeMonthFirstDay(m)
	}
	return days
}()

func computeMonthFirstDay(m int) int {
	return int(certmodel.DayToTime(0).AddDate(0, m, 0).Sub(certmodel.DayToTime(0)).Hours() / 24)
}

// certIndex is the fingerprint map of the minted certificates, built
// once at its final size. The first certificate minted under a
// fingerprint wins, as in zeek.Dataset.AddCert: the certificates are
// stored last to first, so the first one is stored last.
func certIndex(minted []*certmodel.CertInfo) map[ids.Fingerprint]*certmodel.CertInfo {
	m := make(map[ids.Fingerprint]*certmodel.CertInfo, len(minted))
	for i := len(minted) - 1; i >= 0; i-- {
		m[minted[i].Fingerprint] = minted[i]
	}
	return m
}

// slotsOf resolves the certificate cache of (entity, kind).
func (g *Generator) slotsOf(entity, kind string) *certSlots {
	k := [2]string{entity, kind}
	s, ok := g.slots[k]
	if !ok {
		s = &certSlots{prefix: []byte(entity + "/" + kind + "/")}
		g.slots[k] = s
	}
	return s
}

// cert returns (minting if needed) the cached certificate for a holder.
func (g *Generator) cert(s *certSlots, plan *CertPlan, holder, reissue, firstUseDay int) *certmodel.CertInfo {
	dense := reissue == 0 && holder >= 0
	if dense {
		if holder < len(s.first) && s.first[holder] != nil {
			return s.first[holder]
		}
	} else if c, ok := s.later[[2]int{holder, reissue}]; ok {
		return c
	}
	// Per-cert RNG forked from "<entity>/<kind>/<holder>/<reissue>":
	// cache misses never perturb the global stream, keeping generation
	// order-independent.
	k := strconv.AppendInt(append(g.key[:0], s.prefix...), int64(holder), 10)
	k = strconv.AppendInt(append(k, '/'), int64(reissue), 10)
	g.key = k
	crng := g.rng.ForkBytes(k)
	if len(g.certs) == cap(g.certs) {
		g.certs = make([]certmodel.CertInfo, 0, certBlock)
	}
	g.certs = g.certs[:len(g.certs)+1]
	c := &g.certs[len(g.certs)-1]
	plan.mintInto(c, &g.strs, crng, s.prefix, holder, reissue, firstUseDay)
	if c.SelfSigned && c.IssuerOrg == "" && c.IssuerCN == "" {
		c.IssuerCN = c.SubjectCN
	}
	if dense {
		if holder >= len(s.first) {
			s.first = append(s.first, make([]*certmodel.CertInfo, holder+1-len(s.first))...)
		}
		s.first[holder] = c
	} else {
		if s.later == nil {
			s.later = make(map[[2]int]*certmodel.CertInfo)
		}
		s.later[[2]int{holder, reissue}] = c
	}
	g.minted = append(g.minted, c)
	return c
}

// uid draws the next connection UID, cut from the arena.
func (g *Generator) uid() ids.UID {
	var b [ids.UIDLen]byte
	return ids.UID(g.strs.Cut(ids.AppendUID(b[:0], g.uidRNG)))
}

func (g *Generator) pickPort(rng *ids.RNG, ports []PortWeight) uint16 {
	if len(ports) == 0 {
		return 443
	}
	pw := ports[ids.WeightedPickBy(rng, ports, func(p *PortWeight) float64 { return p.Weight })]
	if pw.PortHigh > pw.Port {
		return pw.Port + uint16(rng.Intn(int(pw.PortHigh-pw.Port)+1))
	}
	return pw.Port
}

// growConns makes room for exactly n more connection rows.
func (g *Generator) growConns(n int) {
	if conns := g.ds.Conns; cap(conns)-len(conns) < n {
		g.ds.Conns = make([]zeek.SSLRecord, len(conns), len(conns)+n)
		copy(g.ds.Conns, conns)
	}
}

// span resolves an entity's active months [start, end] and its scaled
// client count.
func (g *Generator) span(e *Entity) (start, end, clients int) {
	start, end = e.StartMonth, e.effectiveEnd()
	if start > end {
		start = end
	}
	return start, end, g.cfg.scaled(e.Clients, e.MinClients)
}

// entityRows is how many ssl.log rows emitEntity appends for e.
func (g *Generator) entityRows(e *Entity) int {
	start, end, clients := g.span(e)
	if e.PerConnCerts {
		return clients
	}
	perMonth := clients
	if e.ClientPlan2 != nil {
		perMonth += min(clients, int(math.Ceil(e.ClientPlan2Share*float64(clients))))
	}
	return (end - start + 1) * perMonth
}

// entityConns is what every connection row of one entity shares,
// resolved once per entity rather than per row: its address labels
// (client addresses by client index, server addresses by server index)
// and its ClientHello fingerprints. once marks a per-connection
// population, whose client indices are each asked for once.
type entityConns struct {
	cli, srv *netsim.Hosts
	once     bool
	ja3, ja4 string
}

// entityCerts are an entity's certificate caches, resolved once per
// entity.
type entityCerts struct{ cli, srv, cli2 *certSlots }

// emitEntity renders one entity's connections and certificates.
func (g *Generator) emitEntity(e *Entity) {
	shape := e.Shape
	if shape == nil {
		shape = ShapeFlat
	}
	start, end, clients := g.span(e)
	var shapeSum float64
	for m := start; m <= end; m++ {
		shapeSum += shape(m)
	}
	if shapeSum <= 0 {
		shapeSum = 1
	}

	servers := g.cfg.scaled(e.Servers, e.MinServers)
	if servers == 0 {
		servers = 1
	}
	firstUseDay := monthFirstDay(start)
	ern := g.rng.Fork("entity/" + e.Name)
	conns := entityConns{once: e.PerConnCerts}
	if e.HelloPreset != "" {
		conns.ja3, conns.ja4 = g.helloFP(e.HelloPreset, e.SNI)
	}
	switch {
	case !e.Inbound:
		conns.cli, conns.srv = g.alloc.CampusDevices(e.Name+"/cli"), g.alloc.ExternalHosts(e.Name+"/srv")
	case e.Health:
		conns.cli, conns.srv = g.alloc.ExternalHosts(e.Name+"/cli"), g.alloc.HealthServers(e.Name)
	default:
		conns.cli, conns.srv = g.alloc.ExternalHosts(e.Name+"/cli"), g.alloc.CampusServers(e.Name)
	}
	certs := entityCerts{
		cli:  g.slotsOf(e.Name, "cli"),
		srv:  g.slotsOf(e.Name, "srv"),
		cli2: g.slotsOf(e.Name, "cli2"),
	}

	if e.PerConnCerts {
		g.emitPerConnEntity(e, ern, conns, certs, clients, servers, start, end, shape, shapeSum)
		return
	}

	clientSubnets := e.ClientSubnets
	if clientSubnets == 0 {
		clientSubnets = clients/50 + 1
	}
	plan2Clients := int(math.Ceil(e.ClientPlan2Share * float64(clients)))

	for m := start; m <= end; m++ {
		monthConns := float64(e.Conns) * shape(m) / shapeSum
		if clients == 0 {
			continue
		}
		weight := int64(math.Round(monthConns / float64(clients)))
		if weight < 1 {
			weight = 1
		}
		day := monthFirstDay(m)
		for c := 0; c < clients; c++ {
			// tsDay drives both the timestamp and the re-issuance index so
			// short-lived certificates are observed within their window.
			tsDay := day + (c*7+m*3)%27
			ts := certmodel.DayToTime(tsDay)
			if off := intraDayOffset(e, m, c); off != 0 {
				ts = ts.Add(off)
			}
			srvIdx := (c + m) % servers

			var clientCert, serverCert *certmodel.CertInfo
			if e.ClientPlan != nil {
				holder := c
				if e.CertHolders > 0 {
					holder = c % e.CertHolders
				}
				ri := e.ClientPlan.reissueIndex(firstUseDay, tsDay)
				clientCert = g.cert(certs.cli, e.ClientPlan, holder, ri, firstUseDay)
			}
			if e.SharedCert {
				serverCert = clientCert
			} else if e.ServerPlan != nil {
				ri := e.ServerPlan.reissueIndex(firstUseDay, tsDay)
				serverCert = g.cert(certs.srv, e.ServerPlan, srvIdx, ri, firstUseDay)
			}
			g.emitConn(e, ern, conns, ts, c, srvIdx, clientSubnets, clientCert, serverCert, weight)

			// Secondary client certificate (Table 3's secondary issuer).
			if e.ClientPlan2 != nil && c < plan2Clients {
				cc2 := g.cert(certs.cli2, e.ClientPlan2, c, 0, firstUseDay)
				sc2 := serverCert
				if e.SharedCert {
					sc2 = cc2
				}
				w2 := weight / 10
				if w2 < 1 {
					w2 = 1
				}
				g.emitConn(e, ern, conns, ts, c, srvIdx, clientSubnets, cc2, sc2, w2)
			}
		}
	}
	g.registerCT(e)
}

// emitPerConnEntity handles WebRTC-style populations where certificates
// are per-connection: rows == client certificates.
func (g *Generator) emitPerConnEntity(e *Entity, ern *ids.RNG, conns entityConns, certs entityCerts, clients, servers, start, end int, shape MonthShape, shapeSum float64) {
	rows := clients // one row per unique client certificate
	if rows == 0 {
		return
	}
	newSrvProb := e.NewServerCertProb
	if newSrvProb <= 0 {
		newSrvProb = 1
	}
	totalW := float64(e.Conns)
	weight := int64(math.Round(totalW / float64(rows)))
	if weight < 1 {
		weight = 1
	}
	srvSerial := 0
	for r := 0; r < rows; r++ {
		// Place the row in a month proportionally to the shape.
		mOff := pickMonthByShape(ern, start, end, shape, shapeSum, r, rows)
		day := monthFirstDay(mOff) + (r*11+mOff)%27
		ts := certmodel.DayToTime(day)
		clientCert := g.cert(certs.cli, e.ClientPlan, r, 0, day)
		if ern.Bool(newSrvProb) || srvSerial == 0 {
			srvSerial++
		}
		serverCert := g.cert(certs.srv, e.ServerPlan, srvSerial, 0, day)
		g.emitConn(e, ern, conns, ts, r, srvSerial%servers, rows/50+1, clientCert, serverCert, weight)
	}
}

// pickMonthByShape deterministically spreads row r over the window with
// density proportional to the shape.
func pickMonthByShape(rng *ids.RNG, start, end int, shape MonthShape, shapeSum float64, r, rows int) int {
	target := (float64(r) + 0.5) / float64(rows) * shapeSum
	var acc float64
	for m := start; m <= end; m++ {
		acc += shape(m)
		if acc >= target {
			return m
		}
	}
	return end
}

// emitConn appends one ssl.log row.
func (g *Generator) emitConn(e *Entity, ern *ids.RNG, conns entityConns, ts time.Time, c, srvIdx, clientSubnets int, clientCert, serverCert *certmodel.CertInfo, weight int64) {
	var origIP, respIP string
	switch {
	case e.Inbound && conns.once:
		origIP, respIP = conns.cli.OnceInSubnet(c%clientSubnets, c), conns.srv.At(srvIdx)
	case e.Inbound:
		origIP, respIP = conns.cli.InSubnet(c%clientSubnets, c), conns.srv.At(srvIdx)
	case conns.once:
		origIP, respIP = conns.cli.Once(c), conns.srv.InSubnet(srvIdx/4, srvIdx)
	default:
		origIP, respIP = conns.cli.At(c), conns.srv.InSubnet(srvIdx/4, srvIdx)
	}
	established := true
	if e.EstablishedShare > 0 && e.EstablishedShare < 1 {
		established = ern.Bool(e.EstablishedShare)
	}
	rec := zeek.SSLRecord{
		TS:          ts,
		UID:         g.uid(),
		OrigIP:      origIP,
		OrigPort:    uint16(32768 + ern.Intn(28000)),
		RespIP:      respIP,
		RespPort:    g.pickPort(ern, e.Ports),
		Version:     "TLSv12",
		SNI:         e.SNI,
		Established: established,
		Weight:      weight,
	}
	if e.TLS13 {
		rec.Version = "TLSv13"
	} else {
		if serverCert != nil {
			rec.ServerChain = g.chain(serverCert.Fingerprint)
		}
		if clientCert != nil {
			rec.ClientChain = g.chain(clientCert.Fingerprint)
		}
	}
	rec.JA3, rec.JA4 = conns.ja3, conns.ja4
	g.ds.Conns = append(g.ds.Conns, rec)
}

// chain returns the one-certificate chain [fp]. Chains are cut from
// shared blocks, each capped at its own length, so an append by a reader
// copies instead of reaching a neighbour; records treat chains as
// read-only in any case.
func (g *Generator) chain(fp ids.Fingerprint) []ids.Fingerprint {
	if len(g.chains) == cap(g.chains) {
		g.chains = make([]ids.Fingerprint, 0, chainBlock)
	}
	g.chains = append(g.chains, fp)
	n := len(g.chains)
	return g.chains[n-1 : n : n]
}

// helloFP returns the JA3/JA4 pair a preset's ClientHello produces for an
// SNI, memoized: the fingerprints are deterministic functions of the
// profile, so the md5/sha256 work happens once per (preset, SNI).
func (g *Generator) helloFP(preset, sni string) (string, string) {
	g.key = append(append(append(g.key[:0], preset...), 0), sni...)
	if fp, ok := g.fpCache[string(g.key)]; ok {
		return fp[0], fp[1]
	}
	p := tlswire.Preset(preset)
	if p == nil {
		panic("workload: unknown hello preset " + preset) // Validate rejects these
	}
	ch := p.Hello(sni)
	fp := [2]string{tlswire.JA3(ch), tlswire.JA4(ch)}
	g.fpCache[preset+"\x00"+sni] = fp
	return fp[0], fp[1]
}

// intraDayOffset scatters a connection inside its day. The offset is a
// pure hash of (entity, month, client) — never an RNG draw — so enabling
// it cannot perturb any legacy random stream, and entities with no
// arrival model keep their midnight timestamps exactly.
func intraDayOffset(e *Entity, m, c int) time.Duration {
	if e.Arrival == "" && !e.Diurnal {
		return 0
	}
	var buf [128]byte
	k := append(append(buf[:0], "arrival/"...), e.Name...)
	k = strconv.AppendInt(append(k, '/'), int64(m), 10)
	k = strconv.AppendInt(append(k, '/'), int64(c), 10)
	h := ids.HashBytes64(k)
	frac := float64(h%1e6) / 1e6
	switch e.Arrival {
	case ArrivalConstant:
		// Evenly spaced 15-minute slots: a polling fleet.
		frac = (float64(c%96) + 0.5) / 96
	case ArrivalBursty:
		// Four tight windows, each covering ~2% of the day.
		slot := float64((h >> 20) % 4)
		frac = (slot + frac*0.08) / 4
	default: // "" (diurnal-only) or poisson: uniform jitter
	}
	if e.Diurnal {
		frac = diurnalWarp(frac)
	}
	// Whole seconds only: the zeek TSV timestamp has sub-second
	// precision limits, and fractional offsets would not round-trip
	// byte-identically through WriteLogs/OpenLogs.
	return time.Duration(frac*float64(24*time.Hour)) / time.Second * time.Second
}

// diurnalWarp maps a uniform [0,1) fraction onto a business-hours
// arrival CDF: 70% of connections between 08:00 and 18:00.
func diurnalWarp(u float64) float64 {
	switch {
	case u < 0.15:
		return u / 0.15 * (8.0 / 24)
	case u < 0.85:
		return 8.0/24 + (u-0.15)/0.70*(10.0/24)
	default:
		return 18.0/24 + (u-0.85)/0.15*(6.0/24)
	}
}

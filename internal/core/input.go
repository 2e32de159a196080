// Package core implements the paper's primary contribution: the
// connection-oriented joint analysis of ssl.log and x509.log that produces
// every table and figure of the evaluation — prevalence and services (§4),
// certificate-practice findings (§5), and the CN/SAN information study
// (§6) — on top of the substrate packages (zeek, truststore, ct,
// interception, classify, infotype, netsim).
package core

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/classify"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/infotype"
	"repro/internal/netsim"
	"repro/internal/psl"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// Input is everything the pipeline needs. The facade package adapts
// workload.Build into this.
type Input struct {
	// Raw is the dataset before preprocessing.
	Raw *zeek.Dataset
	// CT feeds the §3.2 interception filter.
	CT *ct.Log
	// Bundle classifies public vs private issuers.
	Bundle *truststore.Bundle
	// CampusIssuers drive the §6.1.1 user-account rule.
	CampusIssuers []string
	// Assoc maps SLDs to the Table 3 server associations.
	Assoc AssocMap
	// Plan classifies connection direction.
	Plan *netsim.Plan
	// Workers sizes the analysis fan-out of Pipeline.RunAll: 0 selects
	// one worker per CPU (GOMAXPROCS), 1 runs the analyses in order on
	// the caller's goroutine. Preprocessing is serial at every setting,
	// and every setting produces an identical Analysis.
	Workers int
}

// AssocMap is the paper's manual SLD categorization (§4.2).
type AssocMap struct {
	HealthSLDs     []string
	UniversitySLDs []string
	VPNHostPrefix  string
	LocalOrgSLDs   []string
	ThirdPartySLDs []string
	GlobusSLDs     []string
}

// Association labels (Table 3 rows).
const (
	AssocHealth     = "University Health"
	AssocUniversity = "University Server"
	AssocVPN        = "University VPN"
	AssocLocalOrg   = "Local Organization"
	AssocThirdParty = "Third Party Services"
	AssocGlobus     = "Globus"
	AssocUnknown    = "Unknown"
)

// Associate classifies a connection's server side.
func (m *AssocMap) Associate(host, sld string) string {
	return m.index().associate(host, sld)
}

// assocIndex is the hot-path form of AssocMap: one lowercase-keyed map
// lookup per connection instead of a linear scan over every SLD list.
type assocIndex struct {
	vpnPrefix string
	bySLD     map[string]string
}

// index compiles the lookup once. Insertion order encodes Associate's
// category precedence: the first list claiming an SLD wins.
func (m *AssocMap) index() *assocIndex {
	ix := &assocIndex{
		vpnPrefix: strings.ToLower(m.VPNHostPrefix),
		bySLD:     make(map[string]string),
	}
	add := func(slds []string, label string) {
		for _, s := range slds {
			k := strings.ToLower(s)
			if _, ok := ix.bySLD[k]; !ok {
				ix.bySLD[k] = label
			}
		}
	}
	add(m.HealthSLDs, AssocHealth)
	add(m.UniversitySLDs, AssocUniversity)
	add(m.LocalOrgSLDs, AssocLocalOrg)
	add(m.ThirdPartySLDs, AssocThirdParty)
	add(m.GlobusSLDs, AssocGlobus)
	return ix
}

func (ix *assocIndex) associate(host, sld string) string {
	if p := ix.vpnPrefix; p != "" &&
		len(host) >= len(p) && strings.EqualFold(host[:len(p)], p) {
		return AssocVPN
	}
	if sld == "" {
		return AssocUnknown
	}
	if label, ok := ix.bySLD[strings.ToLower(sld)]; ok {
		return label
	}
	return AssocUnknown
}

// connView is one enriched connection: the record plus everything the
// analyses derive from it once.
type connView struct {
	rec   *zeek.SSLRecord
	dir   netsim.Direction
	month int
	sld   string
	tld   string
	// sniSLD is the SLD extracted from the SNI alone, without the
	// certificate-name fallback applied to sld — the Table 5 / Figure 4
	// grouping key, precomputed so analyses never re-split hostnames.
	sniSLD string
	assoc  string
	// server and client are the usage entries of the leaf certificates
	// the connection presented (nil for a side without one, or one that
	// did not resolve); u.cert is the certificate.
	server, client *certUsage
	mutual         bool
}

// certUsage aggregates how one certificate was used across the dataset.
type certUsage struct {
	cert *certmodel.CertInfo
	// pos is the entry's position in usageSet.list.
	pos int
	// class and the issuer category (classify package) are taken from
	// the chain the certificate was presented with on from, its earliest
	// connection by connBefore — a rule the order connections arrive or
	// are merged in cannot change. rest is that chain past the leaf.
	class    truststore.Class
	category classify.Category
	from     *zeek.SSLRecord
	rest     []ids.Fingerprint

	asServer, asClient         bool
	mutualServer, mutualClient bool
	sharedSameConn             bool
	// dummyIssuer memoizes classify.IsDummyIssuer (fuzzy matching is too
	// expensive to repeat per connection).
	dummyIssuer bool

	firstSeen, lastSeen time.Time

	// Subnet spread for Table 6: /24s of the endpoint that presented it.
	serverSubnets subnetSet
	clientSubnets subnetSet

	// contents is the certificate's CN/SAN classification, filled the
	// first time Table 8, 9, 13 or 14 reads it (enriched.contentsOf),
	// under enriched.contentMu.
	contents certContents
}

// usageSet is the usage state: the entries by fingerprint, and the same
// entries as a dense list the reports range over. Removing an entry moves
// the last one into its place.
type usageSet struct {
	byFP map[ids.Fingerprint]*certUsage
	list []*certUsage
}

func newUsageSet() *usageSet {
	return &usageSet{byFP: make(map[ids.Fingerprint]*certUsage)}
}

func (s *usageSet) add(u *certUsage) {
	u.pos = len(s.list)
	s.list = append(s.list, u)
	s.byFP[u.cert.Fingerprint] = u
}

func (s *usageSet) remove(u *certUsage) {
	last := s.list[len(s.list)-1]
	s.list[u.pos], last.pos = last, u.pos
	s.list[len(s.list)-1] = nil
	s.list = s.list[:len(s.list)-1]
	delete(s.byFP, u.cert.Fingerprint)
}

// subnetSet is an allocation-lean set of subnet keys. Most certificates
// are presented from a single subnet, so the first key lives inline and
// the overflow map is allocated only on the second distinct key — two
// map headers per certUsage were a quarter of the ingest path's
// allocated objects.
type subnetSet struct {
	first ids.SubnetKey
	n     int
	rest  map[ids.SubnetKey]struct{}
}

func (s *subnetSet) add(k ids.SubnetKey) {
	switch {
	case s.n == 0:
		s.first, s.n = k, 1
	case k == s.first:
	default:
		if s.rest == nil {
			s.rest = make(map[ids.SubnetKey]struct{}, 2)
		}
		if _, ok := s.rest[k]; !ok {
			s.rest[k] = struct{}{}
			s.n++
		}
	}
}

func (s *subnetSet) len() int { return s.n }

// durationDays is the paper's "duration of activity" (§5).
func (u *certUsage) durationDays() int64 {
	if u.firstSeen.IsZero() {
		return 0
	}
	return int64(u.lastSeen.Sub(u.firstSeen)/(24*time.Hour)) + 1
}

func (u *certUsage) observe(ts time.Time) {
	if u.firstSeen.IsZero() || ts.Before(u.firstSeen) {
		u.firstSeen = ts
	}
	if ts.After(u.lastSeen) {
		u.lastSeen = ts
	}
}

// enriched is the pipeline's working state after preprocessing.
type enriched struct {
	input *Input
	ds    *zeek.Dataset
	psl   *psl.List
	cls   *classify.Classifier
	info  *infotype.Classifier
	pre   *PreprocessReport
	conns []connView
	usage *usageSet

	// contentMu serializes the CN/SAN tables, which fill certContents and
	// the memos below as they read (RunAll runs them concurrently).
	contentMu sync.Mutex
	// infoTypes memoizes the classification of each distinct value;
	// campus and recognizable each issuer key's campus flag and
	// nerlite recognizability. All three are pure functions of their keys.
	infoTypes    map[campusValue]infotype.InfoType
	campus       map[string]bool
	recognizable map[string]bool

	// serialCount counts, per (issuer, serial), the usage entries with a
	// mutual-TLS role — one per fingerprint, so distinct certificates —
	// and collided holds the pairs counted twice or more: the §5.1.2
	// collisions. The enricher keeps both as usage changes (countMutual),
	// so a read does not rebuild them; analyses only read them.
	serialCount map[serialKey]int
	collided    map[serialKey]bool
}

// PreprocessReport reproduces the §3.2 preprocessing statistics.
type PreprocessReport struct {
	// InterceptionIssuers found (paper: 186).
	InterceptionIssuers []string
	// ExcludedCerts removed (paper: 871,993 = 8.4%).
	ExcludedCerts int
	// ExcludedShare of the raw certificate population.
	ExcludedShare float64
	// RawCerts / RawConns before filtering.
	RawCerts, RawConns int
	// TLS13ConnShare is the §3.3 opacity share (of connection weight).
	TLS13ConnShare float64
}

// newEnriched builds the empty analysis state for an input, the Builder's.
func newEnriched(in *Input) *enriched {
	p := psl.Default()
	return &enriched{
		input: in,
		ds:    zeek.NewDataset(),
		psl:   p,
		cls:   classify.New(in.Bundle),
		info:  infotype.New(p, in.CampusIssuers),
		usage: newUsageSet(),

		infoTypes:    make(map[campusValue]infotype.InfoType),
		campus:       make(map[string]bool),
		recognizable: make(map[string]bool),

		serialCount: make(map[serialKey]int),
		collided:    make(map[serialKey]bool),
	}
}

// countMutual moves u's (issuer, serial) count in the collision index by
// d: +1 when u is about to take a mutual-TLS role, -1 when its entry
// leaves the usage state. Only the first role counts, so +1 on an entry
// that already has one, or -1 on one that never had one, changes nothing.
func (e *enriched) countMutual(u *certUsage, d int) {
	if u.mutualServer || u.mutualClient {
		if d > 0 {
			return // already counted
		}
	} else if d < 0 {
		return // never counted
	}
	k := serialKey{u.cert.IssuerKey(), u.cert.SerialHex}
	n := e.serialCount[k] + d
	if n == 0 {
		delete(e.serialCount, k)
	} else {
		e.serialCount[k] = n
	}
	if n >= 2 {
		e.collided[k] = true
	} else {
		delete(e.collided, k)
	}
}

// enricher holds the enrichment state: the usage accumulator plus the
// hot-path caches (PSL splits and issuer classifications repeat heavily,
// so the enricher memoizes them). Every cached value is a pure function
// of its key, so the caches never change results.
type enricher struct {
	e       *enriched
	assoc   *assocIndex
	split   *psl.SplitCache
	memo    *classify.Memo
	issuers *truststore.IssuerMemo
	// subnets memoizes ids.SubnetOfString: addresses repeat across
	// connections and the netip round trip allocates.
	subnets        map[string]ids.SubnetKey
	usage          *usageSet
	tls13W, totalW int64
}

func (e *enriched) newEnricher(ix *assocIndex) *enricher {
	return &enricher{
		e:       e,
		assoc:   ix,
		split:   psl.NewSplitCache(e.psl),
		memo:    classify.NewMemo(),
		issuers: e.input.Bundle.NewIssuerMemo(),
		subnets: make(map[string]ids.SubnetKey, 1024),
		usage:   newUsageSet(),
	}
}

// subnetOf is the memoized ids.SubnetOfString.
func (w *enricher) subnetOf(ip string) ids.SubnetKey {
	if k, ok := w.subnets[ip]; ok {
		return k
	}
	k := ids.SubnetOfString(ip)
	w.subnets[ip] = k
	return k
}

// enrich accounts one connection record's weight and builds its view.
func (w *enricher) enrich(rec *zeek.SSLRecord) connView {
	w.totalW += rec.Weight
	if rec.Version == "TLSv13" {
		w.tls13W += rec.Weight
	}
	return w.view(rec)
}

// view builds the view for one connection record against the dataset as
// it stands and observes it into the usage state. Unlike the weight
// accounting it may run again for the same record once the dataset has
// grown (Builder.AddCert): every usage update is idempotent.
func (w *enricher) view(rec *zeek.SSLRecord) connView {
	e := w.e
	cv := connView{
		rec:   rec,
		dir:   e.input.Plan.DirectionOf(rec.OrigIP, rec.RespIP),
		month: monthIndex(rec.TS),
	}
	split := w.split.Split(rec.SNI)
	cv.sniSLD = split.Registrable()
	cv.sld = cv.sniSLD
	cv.tld = split.TLD()
	// §4.2: when the SNI is absent, resolve server information from
	// the leaf certificates' SAN DNS / CN.
	server, client := e.ds.Cert(rec.ServerLeaf()), e.ds.Cert(rec.ClientLeaf())
	if cv.sld == "" {
		cv.sld, cv.tld = w.resolveFromCerts(server, client)
	}
	cv.assoc = w.assoc.associate(rec.SNI, cv.sld)
	cv.mutual = rec.IsMutual() && rec.Established

	w.observeConn(&cv, server, client)
	return cv
}

// resolveFromCerts recovers SLD/TLD from certificate names when SNI is
// missing: SAN DNS entries first, then the subject CN, server before
// client.
func (w *enricher) resolveFromCerts(server, client *certmodel.CertInfo) (string, string) {
	for _, c := range [2]*certmodel.CertInfo{server, client} {
		if c == nil {
			continue
		}
		for _, name := range c.SANDNS {
			if r := w.split.Split(name); r.Registrable() != "" {
				return r.Registrable(), r.TLD()
			}
		}
		if r := w.split.Split(c.SubjectCN); r.Registrable() != "" {
			return r.Registrable(), r.TLD()
		}
	}
	return "", ""
}

// observeConn updates the usage entries of the view's leaf certificates
// (nil for a side without one) and points the view at them.
func (w *enricher) observeConn(cv *connView, server, client *certmodel.CertInfo) {
	rec := cv.rec
	cv.server, cv.client = nil, nil
	if server != nil {
		u := w.usageOf(server, rec, rec.ServerChain)
		cv.server = u
		u.asServer = true
		if cv.mutual {
			w.e.countMutual(u, 1)
			u.mutualServer = true
		}
		u.observe(rec.TS)
		u.serverSubnets.add(w.subnetOf(rec.RespIP))
	}
	if client != nil {
		u := w.usageOf(client, rec, rec.ClientChain)
		cv.client = u
		u.asClient = true
		if cv.mutual {
			w.e.countMutual(u, 1)
			u.mutualClient = true
		}
		u.observe(rec.TS)
		u.clientSubnets.add(w.subnetOf(rec.OrigIP))
	}
	if cv.mutual && rec.ServerLeaf() == rec.ClientLeaf() && cv.server != nil {
		cv.server.sharedSameConn = true
	}
}

// usageOf returns (creating if needed) the usage entry of c, presented
// on rec with chain. The entry is classified from the chain of its
// earliest connection by connBefore, so a connection earlier than the
// one it was classified from classifies it again; a chain past the leaf
// equal to that one's cannot change the class and is only noted.
func (w *enricher) usageOf(c *certmodel.CertInfo, rec *zeek.SSLRecord, chain []ids.Fingerprint) *certUsage {
	var rest []ids.Fingerprint
	if len(chain) > 1 {
		rest = chain[1:]
	}
	u, ok := w.usage.byFP[c.Fingerprint]
	switch {
	case !ok:
		u = &certUsage{cert: c, dummyIssuer: w.memo.IsDummyIssuer(c.IssuerOrg)}
		w.usage.add(u)
	case !connBefore(rec, u.from):
		return u
	case slices.Equal(rest, u.rest):
		u.from = rec
		return u
	}
	u.from, u.rest = rec, rest
	u.class = w.issuers.ClassifyLeaf(c, rest)
	u.category = w.e.cls.CategoryWith(w.memo, c, rest)
	return u
}

// monthIndex maps a timestamp to its study-month offset.
func monthIndex(ts time.Time) int {
	y, m, _ := ts.Date()
	epoch := certmodel.StudyEpoch
	return (y-epoch.Year())*12 + int(m) - int(epoch.Month())
}

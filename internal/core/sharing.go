package core

import (
	"sort"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// SharingSameReport is Table 5: connections where both endpoints present
// the SAME certificate.
type SharingSameReport struct {
	Rows []SharingSameRow
	// InboundConns/OutboundConns are the §5.2.1 totals (paper: 7.49M and
	// 5.93M).
	InboundConns  int64
	OutboundConns int64
}

// SharingSameRow is one (direction, SLD, issuer) group.
type SharingSameRow struct {
	Direction    string
	SLD          string // "- (missing SNI)" when absent
	IssuerKey    string
	PublicIssuer bool // gray rows of Table 5: public-CA server certs reused as client certs
	Clients      int
	Conns        int64
	DurationDays int64
}

func (e *enriched) sharingSame() *SharingSameReport {
	type key struct{ dir, sld, issuer string }
	type agg struct {
		clients     map[string]bool
		conns       int64
		first, last int64
		// earliest is the group's first connection by (TS, UID), public
		// the class of its server certificate: the certificates of one
		// issuer need not agree, and the order connections merge in must
		// not choose between them.
		earliest *zeek.SSLRecord
		public   bool
	}
	groups := map[key]*agg{}
	rep := &SharingSameReport{}

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || cv.server == nil {
			continue
		}
		if cv.rec.ServerLeaf() != cv.rec.ClientLeaf() {
			continue
		}
		switch cv.dir {
		case netsim.Inbound:
			rep.InboundConns += cv.rec.Weight
		case netsim.Outbound:
			rep.OutboundConns += cv.rec.Weight
		}
		sld := cv.rawSLD()
		k := key{cv.dir.String(), sld, cv.server.cert.IssuerKey()}
		a, ok := groups[k]
		if !ok {
			a = &agg{clients: map[string]bool{}, first: 1 << 62}
			groups[k] = a
		}
		if a.earliest == nil || connBefore(cv.rec, a.earliest) {
			a.earliest = cv.rec
			a.public = cv.server.class == truststore.Public
		}
		a.clients[cv.rec.OrigIP] = true
		a.conns += cv.rec.Weight
		ts := cv.rec.TS.Unix()
		if ts < a.first {
			a.first = ts
		}
		if ts > a.last {
			a.last = ts
		}
	}
	for k, a := range groups {
		rep.Rows = append(rep.Rows, SharingSameRow{
			Direction: k.dir, SLD: k.sld, IssuerKey: k.issuer,
			PublicIssuer: a.public, Clients: len(a.clients), Conns: a.conns,
			DurationDays: (a.last-a.first)/86400 + 1,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Direction != b.Direction {
			return a.Direction < b.Direction
		}
		if a.Clients != b.Clients {
			return a.Clients > b.Clients
		}
		if a.SLD != b.SLD {
			return a.SLD < b.SLD
		}
		return a.IssuerKey < b.IssuerKey
	})
	return rep
}

// rawSLD renders the Table 5 SLD column: SLD from SNI only, with the
// paper's "- (missing SNI)" placeholder (Globus's non-hostname SNI also
// extracts nothing). The split itself is precomputed at enrichment.
func (cv *connView) rawSLD() string {
	if cv.sniSLD != "" {
		return cv.sniSLD
	}
	return missingSNI
}

// missingSNI is the paper's SLD placeholder for a connection without one.
const missingSNI = "- (missing SNI)"

// Row finds a Table 5 row by direction and SLD.
func (r *SharingSameReport) Row(dir, sld string) (SharingSameRow, bool) {
	for _, row := range r.Rows {
		if row.Direction == dir && row.SLD == sld {
			return row, true
		}
	}
	return SharingSameRow{}, false
}

// SharingCrossReport is Table 6: certificates used for BOTH server and
// client authentication in distinct connections, and how many /24 subnets
// each role's presentations span.
type SharingCrossReport struct {
	// Certs is the population size (paper: 1,611).
	Certs int
	// ServerQuantiles / ClientQuantiles are the 50th/75th/99th/100th
	// percentiles of subnet spread (paper: 1/1/7/217 and 1/2/43/1851).
	ServerQuantiles [4]int64
	ClientQuantiles [4]int64
	// IssuerShares: issuer mix of the shared certs (Let's Encrypt 51.58%…).
	IssuerShares []stats.KV
}

func (e *enriched) sharingCross() *SharingCrossReport {
	var srvSpread, cliSpread []int64
	issuers := stats.NewCounter()
	count := 0
	for _, u := range e.usage.list {
		// Cross-connection sharing: the cert appears in both roles but
		// never as both endpoints of a single connection (§5.2.2 treats
		// the same-connection population separately in §5.2.1).
		if !u.asServer || !u.asClient || u.sharedSameConn {
			continue
		}
		count++
		srvSpread = append(srvSpread, int64(u.serverSubnets.len()))
		cliSpread = append(cliSpread, int64(u.clientSubnets.len()))
		issuers.Add(issuerLabel(u), 1)
	}
	rep := &SharingCrossReport{Certs: count, IssuerShares: issuers.Top(6)}
	qs := []float64{0.50, 0.75, 0.99, 1.0}
	sq := stats.Quantiles(srvSpread, qs...)
	cq := stats.Quantiles(cliSpread, qs...)
	copy(rep.ServerQuantiles[:], sq)
	copy(rep.ClientQuantiles[:], cq)
	return rep
}

func issuerLabel(u *certUsage) string {
	if cn := u.cert.IssuerCN; cn != "" {
		return cn
	}
	if org := u.cert.IssuerOrg; org != "" {
		return org
	}
	return "(missing)"
}

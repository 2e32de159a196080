package core

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// BadDatesReport is Figure 3 and Appendix C (Tables 11–12): certificates
// whose not_valid_before does not precede not_valid_after, observed in
// successfully established connections.
type BadDatesReport struct {
	Rows []BadDatesRow
	// BothEndpoints: groups where client AND server certs have incorrect
	// dates in the same connections (idrive.com, SDS).
	BothEndpoints []BadDatesBothRow
	// Certs is the distinct incorrect-date certificate count.
	Certs int
}

// BadDatesRow groups by (SLD, side, issuer).
type BadDatesRow struct {
	SLD                         string
	Side                        string // "client"/"server"
	IssuerKey                   string
	NotBeforeYear, NotAfterYear int
	Clients                     int
	DurationDays                int64
}

// BadDatesBothRow is one Table 12 row.
type BadDatesBothRow struct {
	SLD          string
	ClientIssuer string
	ServerIssuer string
	Clients      int
	DurationDays int64
}

func (e *enriched) badDates() *BadDatesReport {
	type key struct {
		sld, side, issuer string
		nb, na            int
	}
	type agg struct {
		clients     map[string]bool
		first, last int64
	}
	groups := map[key]*agg{}
	type bkey struct{ sld, ci, si string }
	both := map[bkey]*agg{}
	certSet := map[string]bool{}

	observe := func(m map[key]*agg, k key, ip string, ts int64) {
		a, ok := m[k]
		if !ok {
			a = &agg{clients: map[string]bool{}, first: 1 << 62}
			m[k] = a
		}
		a.clients[ip] = true
		if ts < a.first {
			a.first = ts
		}
		if ts > a.last {
			a.last = ts
		}
	}

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual {
			continue
		}
		sld := cv.rawSLD()
		ts := cv.rec.TS.Unix()
		cliBad := cv.clientCert != nil && cv.clientCert.HasIncorrectDates()
		srvBad := cv.serverCert != nil && cv.serverCert.HasIncorrectDates()
		if cliBad {
			c := cv.clientCert
			certSet[string(c.Fingerprint)] = true
			observe(groups, key{sld, "client", c.IssuerKey(), c.NotBefore.Year(), c.NotAfter.Year()}, cv.rec.OrigIP, ts)
		}
		if srvBad {
			c := cv.serverCert
			certSet[string(c.Fingerprint)] = true
			observe(groups, key{sld, "server", c.IssuerKey(), c.NotBefore.Year(), c.NotAfter.Year()}, cv.rec.OrigIP, ts)
		}
		if cliBad && srvBad {
			bk := bkey{sld, cv.clientCert.IssuerKey(), cv.serverCert.IssuerKey()}
			a, ok := both[bk]
			if !ok {
				a = &agg{clients: map[string]bool{}, first: 1 << 62}
				both[bk] = a
			}
			a.clients[cv.rec.OrigIP] = true
			if ts < a.first {
				a.first = ts
			}
			if ts > a.last {
				a.last = ts
			}
		}
	}

	rep := &BadDatesReport{Certs: len(certSet)}
	for k, a := range groups {
		rep.Rows = append(rep.Rows, BadDatesRow{
			SLD: k.sld, Side: k.side, IssuerKey: k.issuer,
			NotBeforeYear: k.nb, NotAfterYear: k.na,
			Clients:      len(a.clients),
			DurationDays: (a.last-a.first)/86400 + 1,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Clients != rep.Rows[j].Clients {
			return rep.Rows[i].Clients > rep.Rows[j].Clients
		}
		a, b := rep.Rows[i], rep.Rows[j]
		if a.SLD != b.SLD {
			return a.SLD < b.SLD
		}
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.IssuerKey != b.IssuerKey {
			return a.IssuerKey < b.IssuerKey
		}
		if a.NotBeforeYear != b.NotBeforeYear {
			return a.NotBeforeYear < b.NotBeforeYear
		}
		return a.NotAfterYear < b.NotAfterYear
	})
	for k, a := range both {
		rep.BothEndpoints = append(rep.BothEndpoints, BadDatesBothRow{
			SLD: k.sld, ClientIssuer: k.ci, ServerIssuer: k.si,
			Clients:      len(a.clients),
			DurationDays: (a.last-a.first)/86400 + 1,
		})
	}
	sort.Slice(rep.BothEndpoints, func(i, j int) bool {
		if rep.BothEndpoints[i].Clients != rep.BothEndpoints[j].Clients {
			return rep.BothEndpoints[i].Clients > rep.BothEndpoints[j].Clients
		}
		a, b := rep.BothEndpoints[i], rep.BothEndpoints[j]
		if a.SLD != b.SLD {
			return a.SLD < b.SLD
		}
		if a.ClientIssuer != b.ClientIssuer {
			return a.ClientIssuer < b.ClientIssuer
		}
		return a.ServerIssuer < b.ServerIssuer
	})
	return rep
}

// ValidityReport is Figure 4: client-certificate validity periods by
// issuer category and direction, excluding incorrect-date certs.
type ValidityReport struct {
	// InboundHist/OutboundHist bucket validity days: ≤90, ≤398, ≤825,
	// ≤3650, ≤10000, ≤40000, >40000.
	InboundHist  *stats.Histogram
	OutboundHist *stats.Histogram
	// ExtremeCount: certs with 10,000–40,000-day validity (paper: 7,911),
	// with the issuer-category mix.
	ExtremeCount      int
	ExtremeCategories []stats.KV
	ExtremePublic     int
	// MaxValidityDays and its server SLD (paper: 83,432 days, tmdxdev.com).
	MaxValidityDays int64
	MaxValiditySLD  string
}

// sldBefore orders the SLDs a tie is settled by: a named one before the
// missing-SNI placeholder, then by name.
func sldBefore(a, b string) bool {
	if am, bm := a == missingSNI, b == missingSNI; am != bm {
		return bm
	}
	return a < b
}

// connBefore orders connections by (TS, UID), an order that does not
// depend on how they were merged.
func connBefore(a, b *zeek.SSLRecord) bool {
	if !a.TS.Equal(b.TS) {
		return a.TS.Before(b.TS)
	}
	return a.UID < b.UID
}

// validityBounds are the Figure 4 histogram bucket bounds.
var validityBounds = []int64{90, 398, 825, 3650, 10000, 40000}

func (e *enriched) validity() *ValidityReport {
	rep := &ValidityReport{
		InboundHist:  stats.NewHistogram(validityBounds...),
		OutboundHist: stats.NewHistogram(validityBounds...),
	}
	// Each certificate is bucketed once, by the direction of the earliest
	// connection (TS, then UID) that carried it: a rule the order
	// connections are merged in cannot change, where "first seen" would
	// follow an aggregator's sync-landing order.
	earliest := map[ids.Fingerprint]*connView{}
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || cv.clientCert == nil {
			continue
		}
		c := cv.clientCert
		if c.HasIncorrectDates() {
			continue
		}
		// The longest validity, named by an SLD of a connection that
		// carried a certificate of it: a tie is settled by the name, not by
		// which connection came first, so the report does not depend on the
		// order connections arrive in (an aggregator merges its sensors' in
		// the order their syncs land).
		days := c.ValidityDays()
		if days > rep.MaxValidityDays || days == rep.MaxValidityDays && sldBefore(cv.rawSLD(), rep.MaxValiditySLD) {
			rep.MaxValidityDays, rep.MaxValiditySLD = days, cv.rawSLD()
		}
		if first, ok := earliest[c.Fingerprint]; !ok || connBefore(cv.rec, first.rec) {
			earliest[c.Fingerprint] = cv
		}
	}
	cats := stats.NewCounter()
	for _, cv := range earliest {
		c := cv.clientCert
		days := c.ValidityDays()
		u := e.usageOf(c, cv.rec.ClientChain)
		switch cv.dir {
		case netsim.Inbound:
			rep.InboundHist.Observe(days, 1)
		case netsim.Outbound:
			rep.OutboundHist.Observe(days, 1)
		}
		if days >= 10000 && days <= 40000 {
			rep.ExtremeCount++
			cats.Add(u.category.String(), 1)
			if u.class == truststore.Public {
				rep.ExtremePublic++
			}
		}
	}
	rep.ExtremeCategories = cats.Top(5)
	return rep
}

// ExpiredReport is Figure 5: client certificates that were already expired
// when observed in successfully established connections.
type ExpiredReport struct {
	Inbound  ExpiredDirection
	Outbound ExpiredDirection
}

// ExpiredDirection is one subfigure.
type ExpiredDirection struct {
	// Points: one per expired client certificate.
	Points []ExpiredPoint
	// PublicCerts/PrivateCerts are the marginal counts.
	PublicCerts, PrivateCerts int
	// AssocShares (inbound): association mix of expired-cert conns.
	AssocShares []stats.KV
	// AppleCluster (outbound): certs issued by Apple ~1,000 days expired.
	AppleCluster int
	// MicrosoftCount (outbound).
	MicrosoftCount int
}

// ExpiredPoint is one certificate.
type ExpiredPoint struct {
	DaysExpiredAtFirstUse int64
	DurationDays          int64
	Public                bool
	IssuerOrg             string
	SLD                   string
}

func (e *enriched) expired() *ExpiredReport {
	// Each certificate is one point, placed by its earliest expired
	// connection (TS, then UID): that connection names the SLD and the
	// direction, so the merge order cannot move a point between the two
	// subfigures.
	earliest := map[ids.Fingerprint]*connView{}
	inAssoc := stats.NewCounter()

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || cv.clientCert == nil {
			continue
		}
		c := cv.clientCert
		if c.HasIncorrectDates() || !c.ExpiredAt(cv.rec.TS) {
			continue
		}
		if cv.dir == netsim.Inbound {
			inAssoc.Add(cv.assoc, cv.rec.Weight)
		}
		if first, ok := earliest[c.Fingerprint]; !ok || connBefore(cv.rec, first.rec) {
			earliest[c.Fingerprint] = cv
		}
	}

	rep := &ExpiredReport{}
	for _, cv := range earliest {
		c := cv.clientCert
		u := e.usageOf(c, cv.rec.ClientChain)
		point := ExpiredPoint{
			DaysExpiredAtFirstUse: c.DaysExpiredAt(u.firstSeen),
			DurationDays:          u.durationDays(),
			Public:                u.class == truststore.Public,
			IssuerOrg:             c.IssuerOrg,
			SLD:                   cv.rawSLD(),
		}
		inbound := cv.dir == netsim.Inbound
		dir := &rep.Outbound
		if inbound {
			dir = &rep.Inbound
		}
		dir.Points = append(dir.Points, point)
		if point.Public {
			dir.PublicCerts++
		} else {
			dir.PrivateCerts++
		}
		if !inbound {
			if point.IssuerOrg == "Apple Inc." &&
				point.DaysExpiredAtFirstUse >= 900 && point.DaysExpiredAtFirstUse <= 1100 {
				dir.AppleCluster++
			}
			if point.IssuerOrg == "Microsoft Corporation" {
				dir.MicrosoftCount++
			}
		}
	}
	sort.Slice(rep.Inbound.Points, lessExpiredPoints(rep.Inbound.Points))
	sort.Slice(rep.Outbound.Points, lessExpiredPoints(rep.Outbound.Points))
	rep.Inbound.AssocShares = inAssoc.Top(5)
	return rep
}

// lessExpiredPoints orders Figure 5 points by a total key so the scatter
// is identical however the source map was iterated.
func lessExpiredPoints(ps []ExpiredPoint) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.DaysExpiredAtFirstUse != b.DaysExpiredAtFirstUse {
			return a.DaysExpiredAtFirstUse < b.DaysExpiredAtFirstUse
		}
		if a.DurationDays != b.DurationDays {
			return a.DurationDays < b.DurationDays
		}
		if a.SLD != b.SLD {
			return a.SLD < b.SLD
		}
		if a.IssuerOrg != b.IssuerOrg {
			return a.IssuerOrg < b.IssuerOrg
		}
		return !a.Public && b.Public
	}
}

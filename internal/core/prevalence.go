package core

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/truststore"
)

// CertStatsReport is Table 1: unique-certificate counts by role and CA
// class, with the mutual-TLS participation share of each category.
type CertStatsReport struct {
	Rows []CertStatsRow
}

// CertStatsRow is one Table 1 row.
type CertStatsRow struct {
	Label  string
	Total  int
	Mutual int
}

// MutualShare is the row's mTLS participation ratio.
func (r CertStatsRow) MutualShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Mutual) / float64(r.Total)
}

func (e *enriched) certStats() *CertStatsReport {
	type bucket struct{ total, mutual int }
	var (
		all, server, client                          bucket
		serverPub, serverPriv, clientPub, clientPriv bucket
	)
	for _, u := range e.usage.list {
		mut := u.mutualServer || u.mutualClient
		all.total++
		if mut {
			all.mutual++
		}
		if u.asServer {
			server.total++
			pub := u.class == truststore.Public
			if pub {
				serverPub.total++
			} else {
				serverPriv.total++
			}
			if u.mutualServer {
				server.mutual++
				if pub {
					serverPub.mutual++
				} else {
					serverPriv.mutual++
				}
			}
		}
		if u.asClient {
			client.total++
			pub := u.class == truststore.Public
			if pub {
				clientPub.total++
			} else {
				clientPriv.total++
			}
			if u.mutualClient {
				client.mutual++
				if pub {
					clientPub.mutual++
				} else {
					clientPriv.mutual++
				}
			}
		}
	}
	row := func(label string, b bucket) CertStatsRow {
		return CertStatsRow{Label: label, Total: b.total, Mutual: b.mutual}
	}
	return &CertStatsReport{Rows: []CertStatsRow{
		row("Total", all),
		row("Server", server),
		row("Server - Public CA", serverPub),
		row("Server - Private CA", serverPriv),
		row("Client", client),
		row("Client - Public CA", clientPub),
		row("Client - Private CA", clientPriv),
	}}
}

// Row returns the named row (nil-safe zero row when absent).
func (r *CertStatsReport) Row(label string) CertStatsRow {
	for _, row := range r.Rows {
		if row.Label == label {
			return row
		}
	}
	return CertStatsRow{Label: label}
}

// PrevalenceReport is Figure 1: monthly mTLS share of all TLS
// connections, overall and split by direction.
type PrevalenceReport struct {
	Overall  []stats.Point
	Inbound  []stats.Point
	Outbound []stats.Point
}

// FirstShare/LastShare are the 1.99% → 3.61% anchors.
func (p *PrevalenceReport) FirstShare() float64 {
	if len(p.Overall) == 0 {
		return 0
	}
	return p.Overall[0].Ratio()
}

// LastShare returns the final month's share.
func (p *PrevalenceReport) LastShare() float64 {
	if len(p.Overall) == 0 {
		return 0
	}
	return p.Overall[len(p.Overall)-1].Ratio()
}

func (e *enriched) prevalence() *PrevalenceReport {
	// Sum per study month, then name each month once rather than format
	// a timestamp (an allocation) per connection. A month index and a
	// "2006-01" key name the same calendar month.
	type month struct {
		ts               time.Time // a connection of the month, to name it
		overall, in, out monthSums
		hasIn, hasOut    bool
	}
	months := make(map[int]*month)
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.rec.Established {
			continue
		}
		m := months[cv.month]
		if m == nil {
			m = &month{ts: cv.rec.TS}
			months[cv.month] = m
		}
		var num int64
		if cv.mutual {
			num = cv.rec.Weight
		}
		m.overall.add(num, cv.rec.Weight)
		switch cv.dir {
		case netsim.Inbound:
			m.in.add(num, cv.rec.Weight)
			m.hasIn = true
		case netsim.Outbound:
			m.out.add(num, cv.rec.Weight)
			m.hasOut = true
		}
	}
	overall := stats.NewMonthSeries()
	in := stats.NewMonthSeries()
	out := stats.NewMonthSeries()
	for _, m := range months {
		key := stats.MonthKey(m.ts.Format("2006-01"))
		overall.Add(key, m.overall.num, m.overall.den)
		if m.hasIn {
			in.Add(key, m.in.num, m.in.den)
		}
		if m.hasOut {
			out.Add(key, m.out.num, m.out.den)
		}
	}
	return &PrevalenceReport{
		Overall:  overall.Points(),
		Inbound:  in.Points(),
		Outbound: out.Points(),
	}
}

// monthSums is one month's Figure 1 numerator and denominator.
type monthSums struct{ num, den int64 }

func (s *monthSums) add(num, den int64) { s.num += num; s.den += den }

package core

import (
	"sort"

	"repro/internal/classify"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/truststore"
)

// InboundReport is Table 3: per server association, the share of inbound
// mutual-TLS connections and clients, with the dominant client-certificate
// issuer categories.
type InboundReport struct {
	Rows []InboundRow
	// TotalConns / TotalClients are the denominators.
	TotalConns   int64
	TotalClients int
}

// InboundRow is one association.
type InboundRow struct {
	Association string
	ConnShare   float64
	ClientShare float64
	// Primary/Secondary issuer categories by client share.
	Primary        string
	PrimaryShare   float64
	Secondary      string
	SecondaryShare float64
}

// Row returns the named association row.
func (r *InboundReport) Row(assoc string) InboundRow {
	for _, row := range r.Rows {
		if row.Association == assoc {
			return row
		}
	}
	return InboundRow{Association: assoc}
}

func (e *enriched) inbound() *InboundReport {
	connW := stats.NewCounter()
	// association -> set of client IPs; association -> category -> client IPs.
	clients := map[string]map[string]bool{}
	catClients := map[string]map[string]map[string]bool{}
	allClients := map[string]bool{}

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || cv.dir != netsim.Inbound {
			continue
		}
		connW.Add(cv.assoc, cv.rec.Weight)
		ip := cv.rec.OrigIP
		allClients[ip] = true
		if clients[cv.assoc] == nil {
			clients[cv.assoc] = map[string]bool{}
			catClients[cv.assoc] = map[string]map[string]bool{}
		}
		clients[cv.assoc][ip] = true
		if cv.client != nil {
			cat := cv.client.category.String()
			if catClients[cv.assoc][cat] == nil {
				catClients[cv.assoc][cat] = map[string]bool{}
			}
			catClients[cv.assoc][cat][ip] = true
		}
	}

	rep := &InboundReport{TotalConns: connW.Total(), TotalClients: len(allClients)}
	for _, assoc := range []string{
		AssocHealth, AssocUniversity, AssocVPN, AssocLocalOrg,
		AssocThirdParty, AssocGlobus, AssocUnknown,
	} {
		row := InboundRow{Association: assoc}
		row.ConnShare = connW.Share(assoc)
		if len(allClients) > 0 {
			row.ClientShare = float64(len(clients[assoc])) / float64(len(allClients))
		}
		// Rank issuer categories by per-association client count.
		type catCount struct {
			cat string
			n   int
		}
		var cats []catCount
		for cat, set := range catClients[assoc] {
			cats = append(cats, catCount{cat, len(set)})
		}
		sort.Slice(cats, func(i, j int) bool {
			if cats[i].n != cats[j].n {
				return cats[i].n > cats[j].n
			}
			return cats[i].cat < cats[j].cat
		})
		denom := float64(len(clients[assoc]))
		if len(cats) > 0 && denom > 0 {
			row.Primary = cats[0].cat
			row.PrimaryShare = float64(cats[0].n) / denom
		}
		if len(cats) > 1 && denom > 0 {
			row.Secondary = cats[1].cat
			row.SecondaryShare = float64(cats[1].n) / denom
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// OutboundReport is Figure 2: outbound mutual-TLS flows from server-cert
// class through server TLD to client issuer category, plus the headline
// aggregate findings of §4.2.2.
type OutboundReport struct {
	// TLDShares: connection share per server TLD.
	TLDShares []stats.KV
	// SLDShares: top server SLDs (amazonaws.com 28.51%, …).
	SLDShares []stats.KV
	// Flows: (server class, TLD, client category) -> conn weight.
	Flows []FlowCell
	// MissingIssuerShare: share of outbound mTLS connections whose client
	// certificate lacks a valid issuer (paper: 37.84%).
	MissingIssuerShare float64
	// PublicServerMissingClientShare: among connections with public-CA
	// server certs, the share with missing-issuer client certs (45.71%).
	PublicServerMissingClientShare float64
	// TotalConns is the outbound mTLS weight.
	TotalConns int64
}

// FlowCell is one Sankey link.
type FlowCell struct {
	ServerClass    string
	TLD            string
	ClientCategory string
	Weight         int64
}

func (e *enriched) outbound() *OutboundReport {
	tlds := stats.NewCounter()
	slds := stats.NewCounter()
	flows := map[[3]string]int64{}
	var total, missing, pubSrv, pubSrvMissing int64

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || cv.dir != netsim.Outbound {
			continue
		}
		w := cv.rec.Weight
		total += w
		tld := cv.tld
		if tld == "" {
			tld = "(missing)"
		}
		tlds.Add(tld, w)
		if cv.sld != "" {
			slds.Add(cv.sld, w)
		}
		srvClass := "private"
		if cv.server != nil &&
			cv.server.class == truststore.Public {
			srvClass = "public"
		}
		cliCat := classify.MissingIssuer.String()
		isMissing := true
		if cv.client != nil {
			cat := cv.client.category
			cliCat = cat.String()
			isMissing = cat == classify.MissingIssuer
		}
		if isMissing {
			missing += w
		}
		if srvClass == "public" {
			pubSrv += w
			if isMissing {
				pubSrvMissing += w
			}
		}
		flows[[3]string{srvClass, tld, cliCat}] += w
	}

	rep := &OutboundReport{
		TLDShares:  tlds.Top(8),
		SLDShares:  slds.Top(8),
		TotalConns: total,
	}
	if total > 0 {
		rep.MissingIssuerShare = float64(missing) / float64(total)
	}
	if pubSrv > 0 {
		rep.PublicServerMissingClientShare = float64(pubSrvMissing) / float64(pubSrv)
	}
	for k, w := range flows {
		rep.Flows = append(rep.Flows, FlowCell{
			ServerClass: k[0], TLD: k[1], ClientCategory: k[2], Weight: w,
		})
	}
	sort.Slice(rep.Flows, func(i, j int) bool {
		if rep.Flows[i].Weight != rep.Flows[j].Weight {
			return rep.Flows[i].Weight > rep.Flows[j].Weight
		}
		a, b := rep.Flows[i], rep.Flows[j]
		return a.ServerClass+a.TLD+a.ClientCategory < b.ServerClass+b.TLD+b.ClientCategory
	})
	return rep
}

// SLDShare returns an SLD's share of outbound mTLS connections.
func (r *OutboundReport) SLDShare(sld string) float64 {
	if r.TotalConns == 0 {
		return 0
	}
	for _, kv := range r.SLDShares {
		if kv.Key == sld {
			return float64(kv.Count) / float64(r.TotalConns)
		}
	}
	return 0
}

package core

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// DummyIssuerReport covers Table 4 (dummy-issuer certificates by side and
// direction) and Table 10 (dummy issuers at both endpoints).
type DummyIssuerReport struct {
	Rows []DummyRow
	// BothEndpoints are connections where BOTH leaf certificates carry
	// dummy issuers (Appendix B).
	BothEndpoints []DummyBothRow
	// WeakKeyCerts counts dummy-issuer certs with 1024-bit RSA keys and
	// Version1Certs counts X.509v1 dummy certs (§5.1.1).
	WeakKeyCerts  int
	Version1Certs int
}

// DummyRow is one (direction, side, issuer) group of Table 4.
type DummyRow struct {
	Direction string // "inbound"/"outbound"
	Side      string // "client"/"server"
	IssuerOrg string
	Servers   int // distinct server IPs involved
	Clients   int // distinct client IPs involved
	Conns     int64
}

// DummyBothRow is one Table 10 row.
type DummyBothRow struct {
	SLD          string
	ClientIssuer string
	ServerIssuer string
	Clients      int
	DurationDays int64
}

func (e *enriched) dummyIssuers() *DummyIssuerReport {
	type key struct{ dir, side, org string }
	type agg struct {
		servers, clients map[string]bool
		conns            int64
	}
	groups := map[key]*agg{}
	get := func(k key) *agg {
		if a, ok := groups[k]; ok {
			return a
		}
		a := &agg{servers: map[string]bool{}, clients: map[string]bool{}}
		groups[k] = a
		return a
	}
	type bothKey struct{ sld, cli, srv string }
	type bothAgg struct {
		clients     map[string]bool
		first, last int64
	}
	both := map[bothKey]*bothAgg{}

	rep := &DummyIssuerReport{}
	weakSeen := map[ids.Fingerprint]bool{}

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual || (cv.dir != netsim.Inbound && cv.dir != netsim.Outbound) {
			continue
		}
		cliDummy := cv.client != nil && cv.client.dummyIssuer
		srvDummy := cv.server != nil && cv.server.dummyIssuer
		if cliDummy {
			a := get(key{cv.dir.String(), "client", cv.client.cert.IssuerOrg})
			a.servers[cv.rec.RespIP] = true
			a.clients[cv.rec.OrigIP] = true
			a.conns += cv.rec.Weight
			if !weakSeen[cv.client.cert.Fingerprint] {
				weakSeen[cv.client.cert.Fingerprint] = true
				if cv.client.cert.WeakKey() {
					rep.WeakKeyCerts++
				}
				if cv.client.cert.Version == 1 {
					rep.Version1Certs++
				}
			}
		}
		if srvDummy {
			a := get(key{cv.dir.String(), "server", cv.server.cert.IssuerOrg})
			a.servers[cv.rec.RespIP] = true
			a.clients[cv.rec.OrigIP] = true
			a.conns += cv.rec.Weight
		}
		if cliDummy && srvDummy {
			sld := cv.sld
			if sld == "" {
				sld = "- (missing SNI)"
			}
			bk := bothKey{sld, cv.client.cert.IssuerOrg, cv.server.cert.IssuerOrg}
			ba, ok := both[bk]
			if !ok {
				ba = &bothAgg{clients: map[string]bool{}, first: 1 << 62}
				both[bk] = ba
			}
			ba.clients[cv.rec.OrigIP] = true
			d := cv.rec.TS.Unix()
			if d < ba.first {
				ba.first = d
			}
			if d > ba.last {
				ba.last = d
			}
		}
	}

	for k, a := range groups {
		rep.Rows = append(rep.Rows, DummyRow{
			Direction: k.dir, Side: k.side, IssuerOrg: k.org,
			Servers: len(a.servers), Clients: len(a.clients), Conns: a.conns,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Direction != b.Direction {
			return a.Direction < b.Direction
		}
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.Conns != b.Conns {
			return a.Conns > b.Conns
		}
		return a.IssuerOrg < b.IssuerOrg
	})
	for k, a := range both {
		rep.BothEndpoints = append(rep.BothEndpoints, DummyBothRow{
			SLD: k.sld, ClientIssuer: k.cli, ServerIssuer: k.srv,
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

// SerialReport reproduces §5.1.2: certificates sharing the same serial
// number within one issuer's scope.
type SerialReport struct {
	Inbound  SerialDirection
	Outbound SerialDirection
}

// SerialDirection is one direction's collision statistics.
type SerialDirection struct {
	// ClientsInvolved: distinct client IPs in connections where at least
	// one endpoint used a collided serial (inbound: 1,126; outbound:
	// 14,541 at full scale).
	ClientsInvolved int
	// BothEndpointClients: clients where both endpoints collided.
	BothEndpointClients int
	// Groups: top colliding (issuer, serial) groups.
	Groups []SerialGroup
}

// SerialGroup is one (issuer, serial) collision set.
type SerialGroup struct {
	IssuerKey   string
	Serial      string
	ServerCerts int
	ClientCerts int
	Conns       int64
	Clients     int
	// Tuples is the unique (client, client cert, server, server cert)
	// combination count (§5's connection tuple).
	Tuples int
	// MaxValidityDays over the group's certs (Globus: 14; GuardiCore: >730).
	MaxValidityDays int64
}

func (e *enriched) serials() *SerialReport {
	collided := e.collided

	type agg struct {
		srvCerts, cliCerts map[ids.Fingerprint]bool
		clients            map[string]bool
		tuples             map[[4]string]bool
		conns              int64
		maxValidity        int64
	}
	inClients := map[string]bool{}
	outClients := map[string]bool{}
	inBoth := map[string]bool{}
	outBoth := map[string]bool{}
	groups := map[serialKey]*agg{}
	getAgg := func(k serialKey) *agg {
		if a, ok := groups[k]; ok {
			return a
		}
		a := &agg{
			srvCerts: map[ids.Fingerprint]bool{}, cliCerts: map[ids.Fingerprint]bool{},
			clients: map[string]bool{}, tuples: map[[4]string]bool{},
		}
		groups[k] = a
		return a
	}

	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual {
			continue
		}
		var srvHit, cliHit bool
		if cv.server != nil {
			k := serialKey{cv.server.cert.IssuerKey(), cv.server.cert.SerialHex}
			if collided[k] {
				srvHit = true
				a := getAgg(k)
				a.srvCerts[cv.server.cert.Fingerprint] = true
				a.clients[cv.rec.OrigIP] = true
				a.conns += cv.rec.Weight
				a.tuples[[4]string{cv.rec.OrigIP, string(cv.rec.ClientLeaf()), cv.rec.RespIP, string(cv.rec.ServerLeaf())}] = true
				if v := cv.server.cert.ValidityDays(); v > a.maxValidity {
					a.maxValidity = v
				}
			}
		}
		if cv.client != nil {
			k := serialKey{cv.client.cert.IssuerKey(), cv.client.cert.SerialHex}
			if collided[k] {
				cliHit = true
				a := getAgg(k)
				a.cliCerts[cv.client.cert.Fingerprint] = true
				a.clients[cv.rec.OrigIP] = true
				a.conns += cv.rec.Weight
				a.tuples[[4]string{cv.rec.OrigIP, string(cv.rec.ClientLeaf()), cv.rec.RespIP, string(cv.rec.ServerLeaf())}] = true
				if v := cv.client.cert.ValidityDays(); v > a.maxValidity {
					a.maxValidity = v
				}
			}
		}
		if srvHit || cliHit {
			if cv.dir == netsim.Inbound {
				inClients[cv.rec.OrigIP] = true
			} else if cv.dir == netsim.Outbound {
				outClients[cv.rec.OrigIP] = true
			}
		}
		if srvHit && cliHit {
			if cv.dir == netsim.Inbound {
				inBoth[cv.rec.OrigIP] = true
			} else if cv.dir == netsim.Outbound {
				outBoth[cv.rec.OrigIP] = true
			}
		}
	}

	build := func() []SerialGroup {
		var out []SerialGroup
		for k, a := range groups {
			out = append(out, SerialGroup{
				IssuerKey: k.issuer, Serial: k.serial,
				ServerCerts: len(a.srvCerts), ClientCerts: len(a.cliCerts),
				Conns: a.conns, Clients: len(a.clients), Tuples: len(a.tuples),
				MaxValidityDays: a.maxValidity,
			})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Conns != out[j].Conns {
				return out[i].Conns > out[j].Conns
			}
			return out[i].IssuerKey+out[i].Serial < out[j].IssuerKey+out[j].Serial
		})
		return out
	}
	all := build()
	return &SerialReport{
		Inbound: SerialDirection{
			ClientsInvolved: len(inClients), BothEndpointClients: len(inBoth), Groups: all,
		},
		Outbound: SerialDirection{
			ClientsInvolved: len(outClients), BothEndpointClients: len(outBoth), Groups: all,
		},
	}
}

// serialKey is an (issuer, serial) pair, the scope of a §5.1.2 collision.
type serialKey struct{ issuer, serial string }

// Group finds a collision group by issuer and serial.
func (d *SerialDirection) Group(issuer, serial string) (SerialGroup, bool) {
	for _, g := range d.Groups {
		if g.IssuerKey == issuer && g.Serial == serial {
			return g, true
		}
	}
	return SerialGroup{}, false
}

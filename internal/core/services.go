package core

import (
	"strconv"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// ServicesReport is Table 2: prominent server ports with and without
// mutual TLS, split by direction.
type ServicesReport struct {
	MutualInbound     []ServiceRow
	MutualOutbound    []ServiceRow
	NonMutualInbound  []ServiceRow
	NonMutualOutbound []ServiceRow
}

// ServiceRow is one Table 2 cell group.
type ServiceRow struct {
	PortLabel string
	Share     float64
	Service   string
}

// serviceNames maps ports to the service labels the paper uses.
var serviceNames = map[string]string{
	"443":         "HTTPS",
	"8443":        "HTTPS",
	"20017":       "Corp. - FileWave",
	"636":         "LDAPS",
	"50000-51000": "Corp. - Globus",
	"9093":        "Corp. - Outset Medical",
	"8883":        "MQTT over TLS",
	"25":          "SMTP",
	"465":         "SMTPS",
	"993":         "IMAPS",
	"9997":        "Corp. - Splunk",
	"3128":        "Corp. - Miscellaneous",
	"33854":       "Corp. - DvTel",
	"52730":       "Univ. - Unknown",
}

// portLabel buckets the Globus ephemeral range the way the paper does.
func portLabel(port uint16) string {
	if port >= 50000 && port <= 51000 {
		return "50000-51000"
	}
	return strconv.Itoa(int(port))
}

// ServiceName resolves a port label to its service name.
func ServiceName(label string) string {
	if s, ok := serviceNames[label]; ok {
		return s
	}
	return "Unknown"
}

func (e *enriched) services() *ServicesReport {
	// Sum per port, then label each port once rather than format one per
	// connection: ports are few, connections are not.
	var mip, mop, nip, nop = map[uint16]int64{}, map[uint16]int64{}, map[uint16]int64{}, map[uint16]int64{}
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.rec.Established {
			continue
		}
		port := cv.rec.RespPort
		switch {
		case cv.mutual && cv.dir == netsim.Inbound:
			mip[port] += cv.rec.Weight
		case cv.mutual && cv.dir == netsim.Outbound:
			mop[port] += cv.rec.Weight
		case !cv.mutual && cv.dir == netsim.Inbound:
			nip[port] += cv.rec.Weight
		case !cv.mutual && cv.dir == netsim.Outbound:
			nop[port] += cv.rec.Weight
		}
	}
	label := func(byPort map[uint16]int64) *stats.Counter {
		c := stats.NewCounter()
		for port, w := range byPort {
			c.Add(portLabel(port), w)
		}
		return c
	}
	mi, mo, ni, no := label(mip), label(mop), label(nip), label(nop)
	top := func(c *stats.Counter) []ServiceRow {
		var rows []ServiceRow
		for _, kv := range c.Top(5) {
			rows = append(rows, ServiceRow{
				PortLabel: kv.Key,
				Share:     c.Share(kv.Key),
				Service:   ServiceName(kv.Key),
			})
		}
		return rows
	}
	return &ServicesReport{
		MutualInbound:     top(mi),
		MutualOutbound:    top(mo),
		NonMutualInbound:  top(ni),
		NonMutualOutbound: top(no),
	}
}

// Find returns the row for a port label ("" service when absent).
func Find(rows []ServiceRow, label string) (ServiceRow, bool) {
	for _, r := range rows {
		if r.PortLabel == label {
			return r, true
		}
	}
	return ServiceRow{}, false
}

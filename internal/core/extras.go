package core

import (
	"repro/internal/stats"
)

// SANTypesReport quantifies §6.1.2's observation about the explicit SAN
// value types: "99% of both IP address and URI types, as well as 99% of
// email address types, are left empty", while SAN DNS is the populated —
// and abused — type.
type SANTypesReport struct {
	// Total certificates considered (mutual TLS).
	Total int
	// Non-empty counts per SAN type.
	DNS, IP, Email, URI int
}

// EmptyShare returns the share of certificates leaving a type empty.
func (r *SANTypesReport) EmptyShare(nonEmpty int) float64 {
	if r.Total == 0 {
		return 0
	}
	return 1 - float64(nonEmpty)/float64(r.Total)
}

func (e *enriched) sanTypes() *SANTypesReport {
	rep := &SANTypesReport{}
	for _, u := range e.usage.list {
		if !u.mutualServer && !u.mutualClient {
			continue
		}
		rep.Total++
		c := u.cert
		if len(c.SANDNS) > 0 {
			rep.DNS++
		}
		if len(c.SANIP) > 0 {
			rep.IP++
		}
		if len(c.SANEmail) > 0 {
			rep.Email++
		}
		if len(c.SANURI) > 0 {
			rep.URI++
		}
	}
	return rep
}

// DurationReport is the §5 "duration of activity" lens applied to the
// whole certificate population: how long certificates stay in use, split
// by role. The long-lived tail is what makes the §5.3.3 expired-cert
// finding persistent rather than transient.
type DurationReport struct {
	// Histograms over activity days: ≤1, ≤7, ≤30, ≤90, ≤365, ≤700, >700.
	Server *stats.Histogram
	Client *stats.Histogram
	// Quantiles (50/90/99/100) of client-cert activity duration.
	ClientQuantiles [4]int64
}

var durationBounds = []int64{1, 7, 30, 90, 365, 700}

func (e *enriched) durations() *DurationReport {
	rep := &DurationReport{
		Server: stats.NewHistogram(durationBounds...),
		Client: stats.NewHistogram(durationBounds...),
	}
	var clientDur []int64
	for _, u := range e.usage.list {
		d := u.durationDays()
		if u.mutualServer {
			rep.Server.Observe(d, 1)
		}
		if u.mutualClient {
			rep.Client.Observe(d, 1)
			clientDur = append(clientDur, d)
		}
	}
	q := stats.Quantiles(clientDur, 0.50, 0.90, 0.99, 1.0)
	copy(rep.ClientQuantiles[:], q)
	return rep
}

// VersionReport is the §3.3 protocol-version mix: TLS 1.3's share is the
// measurement's blind spot, since its certificates are encrypted.
type VersionReport struct {
	// Shares by version string, connection-weighted.
	Shares []stats.KV
	Total  int64
}

// Share returns one version's connection share.
func (r *VersionReport) Share(version string) float64 {
	if r.Total == 0 {
		return 0
	}
	for _, kv := range r.Shares {
		if kv.Key == version {
			return float64(kv.Count) / float64(r.Total)
		}
	}
	return 0
}

func (e *enriched) versions() *VersionReport {
	c := stats.NewCounter()
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.rec.Established {
			continue
		}
		c.Add(cv.rec.Version, cv.rec.Weight)
	}
	return &VersionReport{Shares: c.Top(0), Total: c.Total()}
}

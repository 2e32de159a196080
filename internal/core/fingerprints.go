package core

import (
	"sort"

	"repro/internal/ids"
)

// FingerprintReport is the ClientHello fingerprint-prevalence report: the
// connection-weighted JA3/JA4 mix, joined against client-certificate
// identity. The join is the privacy observation the paper's §6 findings
// imply for the client side of the handshake: a client whose certificate
// carries a stable identity AND whose hello shape is distinctive is
// linkable across destinations from passive observation alone —
// fingerprint columns only exist where the tap recorded them, so rows
// cover the fingerprinted subset.
type FingerprintReport struct {
	// Rows, one per distinct (JA3, JA4) pair, ordered by weighted
	// connection volume (ties broken by JA3 for determinism).
	Rows []FingerprintRow
	// Total is the weighted established-connection volume;
	// Fingerprinted is the portion carrying fingerprint columns.
	Total, Fingerprinted int64
}

// FingerprintRow aggregates one hello shape.
type FingerprintRow struct {
	JA3, JA4 string
	// Conns is the weighted connection volume with this hello shape;
	// MutualConns is the portion that also presented a client certificate.
	Conns, MutualConns int64
	// ClientCerts counts distinct client leaf certificates behind the
	// shape; small values mean the hello pins down the credential.
	ClientCerts int
	// TopIssuer is the most common client-certificate issuer org ("" when
	// the shape never appears on mutual connections).
	TopIssuer string
	// SNIs counts distinct server names contacted with this shape.
	SNIs int
}

// MutualShare is the fraction of a shape's volume that is mutual TLS.
func (r *FingerprintRow) MutualShare() float64 {
	if r.Conns == 0 {
		return 0
	}
	return float64(r.MutualConns) / float64(r.Conns)
}

// FingerprintedShare is the fraction of all volume carrying fingerprints.
func (r *FingerprintReport) FingerprintedShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Fingerprinted) / float64(r.Total)
}

func (e *enriched) fingerprints() *FingerprintReport {
	type acc struct {
		row     FingerprintRow
		certs   map[ids.Fingerprint]struct{}
		issuers map[string]int64
		snis    map[string]struct{}
	}
	byShape := map[string]*acc{}
	rep := &FingerprintReport{}
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.rec.Established {
			continue
		}
		rep.Total += cv.rec.Weight
		if cv.rec.JA3 == "" && cv.rec.JA4 == "" {
			continue
		}
		rep.Fingerprinted += cv.rec.Weight
		key := cv.rec.JA3 + "\x00" + cv.rec.JA4
		a := byShape[key]
		if a == nil {
			a = &acc{
				row:     FingerprintRow{JA3: cv.rec.JA3, JA4: cv.rec.JA4},
				certs:   map[ids.Fingerprint]struct{}{},
				issuers: map[string]int64{},
				snis:    map[string]struct{}{},
			}
			byShape[key] = a
		}
		a.row.Conns += cv.rec.Weight
		if cv.rec.SNI != "" {
			a.snis[cv.rec.SNI] = struct{}{}
		}
		if cv.client != nil {
			a.row.MutualConns += cv.rec.Weight
			a.certs[cv.client.cert.Fingerprint] = struct{}{}
			a.issuers[cv.client.cert.IssuerOrg] += cv.rec.Weight
		}
	}
	for _, a := range byShape {
		a.row.ClientCerts = len(a.certs)
		a.row.SNIs = len(a.snis)
		var bestW int64 = -1
		for org, w := range a.issuers {
			if w > bestW || (w == bestW && org < a.row.TopIssuer) {
				a.row.TopIssuer, bestW = org, w
			}
		}
		rep.Rows = append(rep.Rows, a.row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Conns != rep.Rows[j].Conns {
			return rep.Rows[i].Conns > rep.Rows[j].Conns
		}
		return rep.Rows[i].JA3 < rep.Rows[j].JA3
	})
	return rep
}

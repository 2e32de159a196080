package core

import (
	"repro/internal/classify"
)

// ConcernsReport is the §5 takeaway: the volume of mutual-TLS connections
// affected by each concerning practice, and the union ("prompting a
// critical reevaluation of client-side authentication validation
// procedures in over 13 million connections").
type ConcernsReport struct {
	// Per-concern connection weights (a connection can appear in several).
	MissingClientIssuer int64
	DummyIssuer         int64
	SerialCollision     int64
	SharedSameConn      int64
	IncorrectDates      int64
	ExpiredClientCert   int64
	WeakKey             int64
	// AffectedTotal is the union weight across all concerns.
	AffectedTotal int64
	// MutualTotal is the denominator (established mutual conns).
	MutualTotal int64
}

// AffectedShare is the union's share of mutual-TLS connections.
func (r *ConcernsReport) AffectedShare() float64 {
	if r.MutualTotal == 0 {
		return 0
	}
	return float64(r.AffectedTotal) / float64(r.MutualTotal)
}

func (e *enriched) concerns() *ConcernsReport {
	collided := e.collided
	rep := &ConcernsReport{}
	for i := range e.conns {
		cv := &e.conns[i]
		if !cv.mutual {
			continue
		}
		w := cv.rec.Weight
		rep.MutualTotal += w
		affected := false

		if u := cv.client; u != nil {
			cli := u.cert
			if u.category == classify.MissingIssuer {
				rep.MissingClientIssuer += w
				affected = true
			}
			if u.dummyIssuer {
				rep.DummyIssuer += w
				affected = true
			}
			if collided[serialKey{cli.IssuerKey(), cli.SerialHex}] {
				rep.SerialCollision += w
				affected = true
			}
			if cli.HasIncorrectDates() {
				rep.IncorrectDates += w
				affected = true
			} else if cli.ExpiredAt(cv.rec.TS) {
				rep.ExpiredClientCert += w
				affected = true
			}
			if cli.WeakKey() {
				rep.WeakKey += w
				affected = true
			}
		}
		if u := cv.server; u != nil {
			srv := u.cert
			if u.dummyIssuer {
				rep.DummyIssuer += w
				affected = true
			}
			if srv.HasIncorrectDates() {
				rep.IncorrectDates += w
				affected = true
			}
			if collided[serialKey{srv.IssuerKey(), srv.SerialHex}] {
				rep.SerialCollision += w
				affected = true
			}
		}
		if cv.rec.ServerLeaf() != "" && cv.rec.ServerLeaf() == cv.rec.ClientLeaf() {
			rep.SharedSameConn += w
			affected = true
		}
		if affected {
			rep.AffectedTotal += w
		}
	}
	return rep
}

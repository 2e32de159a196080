package interception

import (
	"sort"

	"repro/internal/ids"
)

// Merge is the §3.2 evidence union and the verdict it implies: the
// observed (issuer -> leaf fingerprints) and contradicted (issuer ->
// domains) relations, with the confirmed-issuer and excluded-certificate
// sets maintained as each pair arrives. A Stream keeps its own evidence
// in one; an aggregator owns one more, fed from its sensors, so the global
// verdict is a long-lived value that costs O(new pairs) to bring current
// rather than a per-read rebuild.
//
// A union of independently accumulated sources equals the verdict of one
// Stream over the interleaved whole because the evidence is
// order-independent and per-connection: each observation contributes at
// most one (issuer, leaf) pair and at most one (issuer, domain) pair,
// regardless of what any other connection did, and confirmation and
// exclusion are pure functions of the two relations — an issuer is
// confirmed when CT contradicts it on >= min distinct domains, and every
// certificate a confirmed issuer was ever seen issuing is excluded.
// Evidence split across sources (domain A contradicted on shard 1,
// domain B on shard 2) therefore corroborates here even though neither
// source alone confirms the issuer. Both relations only grow, which is
// what lets a source be absorbed by re-presenting everything it has
// (AbsorbEvidence); only a source that comes back with less than it had
// needs Reset and a re-absorb.
//
// A Merge is not synchronized; its owner's lock guards it.
type Merge struct {
	min          int
	observed     map[string]map[ids.Fingerprint]bool
	contradicted map[string]map[string]bool
	// confirmed: issuers contradicted on >= min domains.
	confirmed map[string]bool
	// excluded = union of observed[issuer] over confirmed issuers.
	excluded map[ids.Fingerprint]bool
	// res is the verdict as last materialized by Result; nil once a pair
	// moved it.
	res *Result
}

// Pair is one element of either relation: an observed (issuer, leaf)
// when Domain is empty, a contradicted (issuer, domain) otherwise.
type Pair struct {
	Issuer string
	Leaf   ids.Fingerprint
	Domain string
}

// NewMerge returns an empty union confirming issuers contradicted on
// >= min domains (min <= 0 selects the paper's default of 2).
func NewMerge(min int) *Merge {
	if min <= 0 {
		min = 2
	}
	return &Merge{
		min:          min,
		observed:     map[string]map[ids.Fingerprint]bool{},
		contradicted: map[string]map[string]bool{},
		confirmed:    map[string]bool{},
		excluded:     map[ids.Fingerprint]bool{},
	}
}

// add unions one pair in and keeps the verdict current; it reports
// whether the pair was new.
func (m *Merge) add(p Pair) bool {
	if p.Domain == "" {
		fps := m.observed[p.Issuer]
		if fps == nil {
			fps = map[ids.Fingerprint]bool{}
			m.observed[p.Issuer] = fps
		}
		if fps[p.Leaf] {
			return false
		}
		fps[p.Leaf] = true
		if m.confirmed[p.Issuer] {
			m.excluded[p.Leaf] = true
			m.res = nil
		}
		return true
	}
	domains := m.contradicted[p.Issuer]
	if domains == nil {
		domains = map[string]bool{}
		m.contradicted[p.Issuer] = domains
		m.res = nil // one more candidate
	}
	if domains[p.Domain] {
		return false
	}
	domains[p.Domain] = true
	// Corroboration across domains confirms the issuer; every certificate
	// it was ever seen issuing becomes excluded.
	if !m.confirmed[p.Issuer] && len(domains) >= m.min {
		m.confirmed[p.Issuer] = true
		m.res = nil
		for fp := range m.observed[p.Issuer] {
			m.excluded[fp] = true
		}
	}
	return true
}

// AbsorbEvidence unions raw relations in. A source's relations are
// cumulative, so presenting its latest Evidence again — as an aggregator
// does on every sync — adds exactly what is new.
func (m *Merge) AbsorbEvidence(ev *Evidence) {
	if ev == nil {
		return
	}
	for issuer, fps := range ev.Observed {
		for fp := range fps {
			m.add(Pair{Issuer: issuer, Leaf: fp})
		}
	}
	for issuer, domains := range ev.Contradicted {
		for d := range domains {
			if d != "" { // an empty domain would read as an observed pair
				m.add(Pair{Issuer: issuer, Domain: d})
			}
		}
	}
}

// Reset empties the union, for the one case growth cannot express: a
// source restarted and now holds less than was absorbed from it. The
// owner re-absorbs every source afterwards.
func (m *Merge) Reset() {
	clear(m.observed)
	clear(m.contradicted)
	clear(m.confirmed)
	clear(m.excluded)
	m.res = nil
}

// ExcludedCount is the current exclusion-set size.
func (m *Merge) ExcludedCount() int { return len(m.excluded) }

// ConfirmedCount is how many issuers are currently confirmed as
// interception.
func (m *Merge) ConfirmedCount() int { return len(m.confirmed) }

// Result is the current verdict in Detector.Run's format: sorted
// confirmed issuers plus a copy of the exclusion set. It is materialized
// when the verdict has moved since the last call and shared until it
// moves again, so callers must treat it as read-only — and may keep it
// without the owner's lock, since a later verdict is a new value.
func (m *Merge) Result() *Result {
	if m.res != nil {
		return m.res
	}
	res := &Result{
		CandidateCount: len(m.contradicted),
		ExcludedCerts:  copyMap(m.excluded),
	}
	for issuer := range m.confirmed {
		res.Issuers = append(res.Issuers, issuer)
	}
	sort.Strings(res.Issuers)
	m.res = res
	return res
}

package interception

import (
	"cmp"
	"slices"

	"repro/internal/ids"
)

// Evidence is the raw, verdict-free form of a detector's accumulated
// state: the observed (issuer -> leaf fingerprints) and contradicted
// (issuer -> domains) relations, plus how many observations are parked
// waiting for their leaf certificate. It is what crosses the network in
// a distributed deployment — verdicts are recomputed at the merge point
// (an issuer contradicted on domain A at one sensor and domain B at
// another corroborates globally even though neither sensor alone would
// confirm it), so shipping per-sensor verdicts would lose exactly the
// cross-vantage evidence the aggregation exists to combine.
type Evidence struct {
	Observed     map[string]map[ids.Fingerprint]bool
	Contradicted map[string]map[string]bool
	Pending      int
}

// Pairs lists both relations as pairs in the one canonical order — by
// issuer, an issuer's observed leaves ahead of its contradicted domains,
// each ascending — so equal evidence always serializes to equal bytes.
func (ev *Evidence) Pairs() []Pair {
	n := 0
	for _, fps := range ev.Observed {
		n += len(fps)
	}
	for _, domains := range ev.Contradicted {
		n += len(domains)
	}
	pairs := make([]Pair, 0, n)
	for issuer, fps := range ev.Observed {
		for fp := range fps {
			pairs = append(pairs, Pair{Issuer: issuer, Leaf: fp})
		}
	}
	for issuer, domains := range ev.Contradicted {
		for d := range domains {
			if d != "" { // an empty domain would read as an observed pair
				pairs = append(pairs, Pair{Issuer: issuer, Domain: d})
			}
		}
	}
	slices.SortFunc(pairs, ComparePairs)
	return pairs
}

// ComparePairs orders pairs as Evidence.Pairs lists them.
func ComparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Issuer, b.Issuer); c != 0 {
		return c
	}
	if (a.Domain == "") != (b.Domain == "") {
		if a.Domain == "" {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.Leaf, b.Leaf); c != 0 {
		return c
	}
	return cmp.Compare(a.Domain, b.Domain)
}

// EvidenceOf is the inverse of Pairs: the relations holding exactly the
// given pairs. Pending is the caller's to fill.
func EvidenceOf(pairs []Pair) *Evidence {
	ev := &Evidence{
		Observed:     map[string]map[ids.Fingerprint]bool{},
		Contradicted: map[string]map[string]bool{},
	}
	for _, p := range pairs {
		if p.Domain == "" {
			if ev.Observed[p.Issuer] == nil {
				ev.Observed[p.Issuer] = map[ids.Fingerprint]bool{}
			}
			ev.Observed[p.Issuer][p.Leaf] = true
		} else {
			if ev.Contradicted[p.Issuer] == nil {
				ev.Contradicted[p.Issuer] = map[string]bool{}
			}
			ev.Contradicted[p.Issuer][p.Domain] = true
		}
	}
	return ev
}

// Absorb unions o's relations into ev and reports whether any pair was
// new to it. Pending is the caller's: a parked count is a level, not a
// relation.
func (ev *Evidence) Absorb(o *Evidence) bool {
	grew := false
	for issuer, fps := range o.Observed {
		for fp := range fps {
			if !ev.Observed[issuer][fp] {
				if ev.Observed[issuer] == nil {
					ev.Observed[issuer] = map[ids.Fingerprint]bool{}
				}
				ev.Observed[issuer][fp], grew = true, true
			}
		}
	}
	for issuer, domains := range o.Contradicted {
		for d := range domains {
			if !ev.Contradicted[issuer][d] {
				if ev.Contradicted[issuer] == nil {
					ev.Contradicted[issuer] = map[string]bool{}
				}
				ev.Contradicted[issuer][d], grew = true, true
			}
		}
	}
	return grew
}

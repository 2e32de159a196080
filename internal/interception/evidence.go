package interception

import "repro/internal/ids"

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

// Evidence deep-copies the stream's raw relations. The caller must
// synchronize access to s (the engine holds its state lock).
func (s *Stream) Evidence() *Evidence {
	ev := s.ev.Evidence()
	ev.Pending = s.parked
	return ev
}

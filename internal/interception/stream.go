package interception

import (
	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/psl"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// Stream is the incremental form of the Detector: the same three-step
// filter (§3.2), maintained one observation at a time so a long-running
// monitor can keep the interception verdict current while records arrive.
// Detector.Run is a thin loop over a Stream, so the batch and streaming
// paths share one implementation.
//
// A connection whose server leaf certificate has not arrived yet is
// parked in a pending set and processed when ObserveCert delivers the
// certificate — the outcome is therefore independent of how ssl.log and
// x509.log rows interleave, and draining a finite input produces exactly
// Detector.Run's result.
//
// The exclusion set only ever grows, so callers detect retroactive
// exclusions (a newly confirmed issuer invalidates conclusions drawn from
// its earlier certificates) by comparing ExcludedCount.
type Stream struct {
	d    *Detector
	memo *truststore.IssuerMemo
	sld  *psl.SplitCache

	// ev is the evidence gathered so far and its verdict; log is the same
	// pairs in the order they were new to it. Both relations only grow, so
	// the log is append-only and "the evidence since" a position is a slice
	// suffix: what a checkpoint delta writes.
	ev  *Merge
	log []Pair

	// pending: leaf fingerprint -> conns waiting for that certificate;
	// parked counts the waiting conns.
	pending map[ids.Fingerprint][]PendingRef
	parked  int
}

// PendingRef is one connection observation parked until its server leaf
// certificate arrives: the SNI (for the CT domain lookup) and the rest of
// the presented chain (for trust classification).
type PendingRef struct {
	SNI  string
	Rest []ids.Fingerprint
}

// NewStream returns an incremental detector.
func (d *Detector) NewStream() *Stream {
	return &Stream{
		d:       d,
		memo:    d.Bundle.NewIssuerMemo(),
		sld:     psl.NewSplitCache(d.PSL),
		ev:      NewMerge(d.MinDomains),
		pending: map[ids.Fingerprint][]PendingRef{},
	}
}

// Observe feeds one connection with its server leaf certificate as the
// caller resolved it — nil when the certificate has not been observed yet,
// which parks the observation until ObserveCert delivers it.
func (s *Stream) Observe(conn *zeek.SSLRecord, leaf *certmodel.CertInfo) {
	leafFP := conn.ServerLeaf()
	if leafFP == "" {
		return
	}
	ref := PendingRef{SNI: conn.SNI, Rest: conn.ServerChain[1:]}
	if leaf == nil {
		s.pending[leafFP] = append(s.pending[leafFP], ref)
		s.parked++
		return
	}
	s.observe(leaf, ref)
}

// ObserveCert notifies the stream that a certificate became resolvable,
// draining any connections that were waiting for it. Call it on the first
// observation of each fingerprint.
func (s *Stream) ObserveCert(c *certmodel.CertInfo) {
	refs := s.pending[c.Fingerprint]
	if refs == nil {
		return
	}
	delete(s.pending, c.Fingerprint)
	s.parked -= len(refs)
	for _, ref := range refs {
		s.observe(c, ref)
	}
}

// observe is the per-connection body of Detector.Run.
func (s *Stream) observe(leaf *certmodel.CertInfo, ref PendingRef) {
	// Step 1: only untrusted server issuers are candidates. The issuer
	// membership half of the verdict is memoized per stream — verdicts
	// are identical to Bundle.ClassifyLeaf.
	if s.memo.ClassifyLeaf(leaf, ref.Rest) == truststore.Public {
		return
	}
	issuer := leaf.IssuerKey()
	if issuer == "" {
		return
	}
	s.add(Pair{Issuer: issuer, Leaf: leaf.Fingerprint})

	// Step 2: CT comparison on the connection's domain.
	domain := s.sld.SLD(ref.SNI)
	if domain == "" && len(leaf.SANDNS) > 0 {
		domain = s.sld.SLD(leaf.SANDNS[0])
	}
	if domain == "" || !s.d.CT.Known(domain) {
		return
	}
	if s.d.CT.HasIssuer(domain, issuer) {
		return
	}
	// Step 3 — corroboration across domains confirms the issuer and
	// excludes every certificate it was ever seen issuing — happens as the
	// pair lands (Merge.add).
	s.add(Pair{Issuer: issuer, Domain: domain})
}

// add unions one pair into the evidence and, when it was new, logs it.
func (s *Stream) add(p Pair) {
	if s.ev.add(p) {
		s.log = append(s.log, p)
	}
}

// ExcludedCount is the current exclusion-set size.
func (s *Stream) ExcludedCount() int { return s.ev.ExcludedCount() }

// ConfirmedCount is how many issuers are currently confirmed as
// interception.
func (s *Stream) ConfirmedCount() int { return s.ev.ConfirmedCount() }

// PendingCount is how many connections are parked waiting for their
// server leaf certificate.
func (s *Stream) PendingCount() int { return s.parked }

// Result is the current verdict in Detector.Run's format, shared and
// read-only as Merge.Result describes.
func (s *Stream) Result() *Result { return s.ev.Result() }

// Pairs returns the evidence log from position from on: every pair that
// was new to the stream since it held from of them, in arrival order. The
// log only grows by appending, so the slice stays readable after the
// caller's lock is released, and len(Pairs(0)) is the position to pass
// next time. The detector is cumulative — evicted connections still count
// toward issuer confirmation — so it cannot be rebuilt from a retention
// window: a checkpoint keeps the log, one delta at a time, and the verdict,
// a function of the pairs, is not stored.
func (s *Stream) Pairs(from int) []Pair { return s.log[from:] }

// Parked copies the observations waiting for their leaf certificate: the
// part of the detector's state that shrinks, which a checkpoint therefore
// writes whole.
func (s *Stream) Parked() map[ids.Fingerprint][]PendingRef {
	parked := make(map[ids.Fingerprint][]PendingRef, len(s.pending))
	for k, v := range s.pending {
		parked[k] = append([]PendingRef(nil), v...)
	}
	return parked
}

// Restore loads checkpointed state into a fresh stream: the pairs one by
// one, which re-derives the verdict (and logs them in the order given,
// each once), and the parked observations as they were.
func (s *Stream) Restore(pairs []Pair, parked map[ids.Fingerprint][]PendingRef) {
	for _, p := range pairs {
		s.add(p)
	}
	for k, v := range parked {
		s.pending[k] = append(s.pending[k], v...)
		s.parked += len(v)
	}
}

func copyMap[K comparable](m map[K]bool) map[K]bool {
	out := make(map[K]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

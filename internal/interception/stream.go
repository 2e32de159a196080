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

	// ev is the evidence gathered so far and its verdict.
	ev *Merge

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
	s.ev.add(pair{issuer: issuer, leaf: leaf.Fingerprint})

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
	s.ev.add(pair{issuer: issuer, domain: domain})
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

// StreamState is the serializable snapshot of a Stream, exported so the
// streaming engine can checkpoint the detector alongside its own state
// (the detector is cumulative: evicted connections still count toward
// issuer confirmation, so it cannot be rebuilt from a retention window).
// The verdict is a function of the two relations and is not stored.
type StreamState struct {
	Observed     map[string]map[ids.Fingerprint]bool
	Contradicted map[string]map[string]bool
	Pending      map[ids.Fingerprint][]PendingRef
}

// Snapshot copies the stream's state for serialization.
func (s *Stream) Snapshot() *StreamState {
	ev := s.ev.Evidence()
	st := &StreamState{
		Observed:     ev.Observed,
		Contradicted: ev.Contradicted,
		Pending:      make(map[ids.Fingerprint][]PendingRef, len(s.pending)),
	}
	for k, v := range s.pending {
		st.Pending[k] = append([]PendingRef(nil), v...)
	}
	return st
}

// Restore unions a snapshot into the stream: its relations pair by pair,
// which re-derives the verdict, and its parked observations behind any
// already waiting on the same leaf. Snapshots of streams that each saw
// part of an input restore, one after another, to the stream that saw the
// whole; the same observation restored twice is parked twice.
func (s *Stream) Restore(st *StreamState) {
	s.ev.AbsorbEvidence(&Evidence{Observed: st.Observed, Contradicted: st.Contradicted})
	for k, v := range st.Pending {
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

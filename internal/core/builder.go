package core

import (
	"slices"

	"repro/internal/certmodel"
	"repro/internal/classify"
	"repro/internal/ids"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// ConnRecord is the connection event the analyses consume — one ssl.log
// row. The streaming engine ingests these one at a time; the batch path
// reads them from a Dataset. They are the same type so both paths feed
// identical data through identical code.
type ConnRecord = zeek.SSLRecord

// CertRecord is the certificate event — one x509.log row.
type CertRecord = zeek.X509Record

// Builder constructs the enriched analysis state incrementally, one
// connection at a time. It is the one way into the analyses: the batch
// preprocess, the streaming engine, the aggregator and a restored engine
// all fill one through mergeInto, which applies the §3.2 verdict (a
// certificate it excludes is not resolvable, a connection whose server
// leaf it excludes is not added); the owner decides what else is admitted
// (windowing) and in what order.
//
// The caller owns the order of connections: feeding the same connections
// in the same order as a batch run yields a deeply equal Analysis. A
// certificate's class and issuer category do not depend on that order:
// they come from the chain of its earliest connection by connBefore. When
// a certificate arrives relative to the connections that name it does not
// matter: AddCert re-enriches, in position order, the views that failed to
// resolve it, and every usage update is idempotent (flags, min/max
// timestamps, subnet sets), so the
// state equals the one the certificate-first order builds. One thing can
// be taken back: the certificates a grown §3.2 verdict excludes, with the
// connections they served (Exclude). Anything else that removes records —
// a lossy source, a misordered append — costs a fresh Builder
// (MergedView's ReplayReason constants).
type Builder struct {
	e *enriched
	w *enricher
	// waiting lists, per leaf fingerprint a connection named that the
	// dataset could not resolve, the positions in e.conns of those views,
	// ascending. An entry lives until its certificate arrives; one that
	// never does costs four bytes per naming connection.
	waiting map[ids.Fingerprint][]int32
}

// NewBuilder returns an empty Builder for the input's analysis context
// (trust bundle, CT log, association map, netsim plan). in.Raw is ignored
// — the Builder accumulates its own dataset from AddCert/AddConn.
func NewBuilder(in *Input) *Builder {
	e := newEnriched(in)
	return &Builder{e: e, w: e.newEnricher(in.Assoc.index()), waiting: make(map[ids.Fingerprint][]int32)}
}

// issuerMemos are the enricher's two caches keyed by certificate issuer
// strings — pure functions of strings a roster keeps resident, so they
// may outlive the Builder that filled them. The PSL split cache and the
// subnet memo may not: their keys are connection strings, which over a
// MergeCapture.Copies capture are all that still points into the decoded
// records the view has to let go.
type issuerMemos struct {
	memo    *classify.Memo
	issuers *truststore.IssuerMemo
}

// shareIssuerMemos makes b classify issuers through the memos m holds,
// or, when it holds none yet, leaves b's own there for the next Builder.
func (b *Builder) shareIssuerMemos(m *issuerMemos) {
	if m.memo == nil {
		*m = issuerMemos{b.w.memo, b.w.issuers}
	} else {
		b.w.memo, b.w.issuers = m.memo, m.issuers
	}
}

// AddCert registers a certificate for chain resolution and rebuilds the
// views of the connections that were waiting for it, lowest position
// first — the connection a certificate-first order would have classified
// it from. It returns how many it rebuilt. First observation of a
// fingerprint wins, matching zeek.Dataset.AddCert: a repeat changes
// nothing.
func (b *Builder) AddCert(c *certmodel.CertInfo) int {
	if b.HasCert(c.Fingerprint) {
		return 0
	}
	b.e.ds.AddCert(c)
	late := b.waiting[c.Fingerprint]
	delete(b.waiting, c.Fingerprint)
	for _, pos := range late {
		b.e.conns[pos] = b.w.view(b.e.conns[pos].rec)
	}
	return len(late)
}

// HasCert reports whether a fingerprint is already resolvable.
func (b *Builder) HasCert(fp ids.Fingerprint) bool { return b.e.ds.Cert(fp) != nil }

// Exclude takes back what a §3.2 verdict grown by newly removes, leaving
// the Builder as a fresh one fed the same certificates and connections
// under the grown verdict would stand: the certificates leave the chain-
// resolution dataset and the usage state, every connection whose server
// leaf is one of them is removed (as mergeInto would not have added it),
// and a surviving connection that presented one as its client leaf is
// re-enriched without it. It returns how many connections it removed.
//
// A certificate no connection names costs its two map deletes. Otherwise
// the views are compacted in one pass; what a removed connection had
// contributed to a surviving certificate — its client leaf — cannot be
// subtracted from first/last-seen or a subnet set, so those certificates'
// usage entries are dropped and observed again from the surviving views
// that name them, lowest position first: the connection a replay would
// classify each from. Every other usage update of that second pass is
// idempotent.
func (b *Builder) Exclude(newly []ids.Fingerprint) int {
	e, w := b.e, b.w
	// gone holds the excluded certificates some view resolved; drop the
	// positions of the views still waiting for one as their server leaf.
	var gone map[*certmodel.CertInfo]bool
	var drop []int32
	for _, fp := range newly {
		if c := e.ds.Certs[fp]; c != nil {
			delete(e.ds.Certs, fp)
			if u, used := w.usage.byFP[fp]; used {
				e.countMutual(u, -1)
				w.usage.remove(u)
				if gone == nil {
					gone = make(map[*certmodel.CertInfo]bool)
				}
				gone[c] = true
			}
			continue
		}
		for _, pos := range b.waiting[fp] {
			if e.conns[pos].rec.ServerLeaf() == fp {
				drop = append(drop, pos)
			}
		}
	}
	if len(gone) == 0 && len(drop) == 0 {
		return 0
	}
	slices.Sort(drop) // the lists of different leaves interleave

	// One pass: removed collects the old positions taken out, reviewed
	// the new positions of the views rebuilt without their client leaf,
	// touched the surviving certificates a removed view had observed.
	var removed, reviewed []int32
	touched := make(map[*certmodel.CertInfo]bool)
	n := 0
	for i := range e.conns {
		cv := &e.conns[i]
		var out bool
		if cv.server != nil {
			out = gone[cv.server.cert]
		} else if len(drop) > 0 && drop[0] == int32(i) {
			out, drop = true, drop[1:]
		}
		if out {
			w.totalW -= cv.rec.Weight
			if cv.rec.Version == "TLSv13" {
				w.tls13W -= cv.rec.Weight
			}
			if u := cv.client; u != nil && !gone[u.cert] {
				touched[u.cert] = true
			}
			removed = append(removed, int32(i))
			continue
		}
		if cv.client != nil && gone[cv.client.cert] {
			*cv = w.view(cv.rec)
			reviewed = append(reviewed, int32(n))
		}
		if n != i {
			e.conns[n] = *cv
		}
		n++
	}
	clear(e.conns[n:]) // let the removed records go
	e.conns = e.conns[:n]

	if len(touched) > 0 {
		for c := range touched {
			u := w.usage.byFP[c.Fingerprint]
			e.countMutual(u, -1)
			w.usage.remove(u)
		}
		for i := range e.conns {
			cv := &e.conns[i]
			server, client := certOf(cv.server), certOf(cv.client)
			if touched[server] || touched[client] {
				w.observeConn(cv, server, client)
			}
		}
	}

	// The waiting lists, against the compacted positions.
	if len(removed) > 0 {
		for fp, list := range b.waiting {
			kept := list[:0]
			for _, pos := range list {
				if below, out := slices.BinarySearch(removed, pos); !out {
					kept = append(kept, pos-int32(below))
				}
			}
			if len(kept) == 0 {
				delete(b.waiting, fp)
			} else {
				b.waiting[fp] = kept
			}
		}
	}
	for _, pos := range reviewed {
		cl := e.conns[pos].rec.ClientLeaf()
		b.waiting[cl] = append(b.waiting[cl], pos)
	}
	return len(removed)
}

// certOf is u's certificate, nil for a nil entry.
func certOf(u *certUsage) *certmodel.CertInfo {
	if u == nil {
		return nil
	}
	return u.cert
}

// AddConn enriches one connection and appends it to the analysis state.
// The record pointer is retained by the enriched view; callers must not
// mutate it afterwards.
func (b *Builder) AddConn(rec *ConnRecord) {
	cv := b.w.enrich(rec)
	// A leaf the view names but could not resolve: list the position
	// under it — once when both sides name the same one.
	pos := int32(len(b.e.conns))
	sl, cl := rec.ServerLeaf(), rec.ClientLeaf()
	if cv.server == nil && sl != "" {
		b.waiting[sl] = append(b.waiting[sl], pos)
	}
	if cv.client == nil && cl != "" && cl != sl {
		b.waiting[cl] = append(b.waiting[cl], pos)
	}
	b.e.conns = append(b.e.conns, cv)
}

// Conns reports how many connections have been added.
func (b *Builder) Conns() int { return len(b.e.conns) }

// GrowConns reserves capacity for n further AddConn calls, at least
// doubling the view slice when it must reallocate. Batch callers invoke
// it once per batch so the per-record appends never resize mid-batch;
// the default append growth on the multi-megabyte view slice otherwise
// dominates the ingest path's allocated bytes.
func (b *Builder) GrowConns(n int) {
	if cap(b.e.conns)-len(b.e.conns) >= n {
		return
	}
	c := 2 * cap(b.e.conns)
	if c < len(b.e.conns)+n {
		c = len(b.e.conns) + n
	}
	ns := make([]connView, len(b.e.conns), c)
	copy(ns, b.e.conns)
	b.e.conns = ns
}

// Pipeline materializes the current state as an analysis pipeline. pre
// carries the §3.2 preprocessing statistics the owner tracked; its §3.3
// TLS 1.3 opacity share is derived here from the accumulated connection
// weights. Pipeline may be called repeatedly as more records arrive; the
// analyses only read the state, so an Analysis materialized mid-stream is
// a consistent snapshot of everything added so far.
func (b *Builder) Pipeline(pre *PreprocessReport) *Pipeline {
	b.e.usage = b.w.usage
	b.e.pre = pre
	if b.w.totalW > 0 {
		pre.TLS13ConnShare = float64(b.w.tls13W) / float64(b.w.totalW)
	}
	return &Pipeline{e: b.e}
}

package core

import (
	"repro/internal/certmodel"
	"repro/internal/ids"
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
// connection at a time, using the exact enricher the batch serial path
// runs (enrichSerial). It is the core of the streaming engine: the engine
// decides which records are admitted (interception filtering, windowing)
// and the Builder turns the admitted sequence into the same state
// NewPipeline would produce for an equivalent filtered dataset.
//
// The caller owns the order of connections: feeding the same connections
// in the same order as a batch run yields a deeply equal Analysis,
// because certificate classification is first-observation-wins exactly as
// on the serial path. When a certificate arrives relative to the
// connections that name it does not matter: AddCert re-enriches, in
// position order, the views that failed to resolve it, and every usage
// update is idempotent (flags, min/max timestamps, subnet sets), so the
// state equals the one the certificate-first order builds. Nothing can
// be taken back, though: a removed connection's share of another
// certificate's first/last-seen cannot be un-counted, so a grown
// verdict, a lossy source or a misordered append cost a fresh Builder
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
	e.ds = zeek.NewDataset()
	return &Builder{e: e, w: e.newEnricher(in.Assoc.index()), waiting: make(map[ids.Fingerprint][]int32)}
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

// AddConn enriches one connection and appends it to the analysis state.
// The record pointer is retained by the enriched view; callers must not
// mutate it afterwards.
func (b *Builder) AddConn(rec *ConnRecord) {
	cv := b.w.enrich(rec)
	// A leaf the view names but could not resolve: list the position
	// under it — once when both sides name the same one.
	pos := int32(len(b.e.conns))
	sl, cl := rec.ServerLeaf(), rec.ClientLeaf()
	if cv.serverCert == nil && sl != "" {
		b.waiting[sl] = append(b.waiting[sl], pos)
	}
	if cv.clientCert == nil && cl != "" && cl != sl {
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
// carries the §3.2 preprocessing statistics the caller tracked (the
// streaming engine runs interception filtering itself); its TLS 1.3
// opacity share is derived here from the accumulated connection weights,
// as on the batch path. Pipeline may be called repeatedly as more records
// arrive; the analyses only read the state, so an Analysis materialized
// mid-stream is a consistent snapshot of everything added so far.
func (b *Builder) Pipeline(pre *PreprocessReport) *Pipeline {
	b.e.usage = b.w.usage
	b.e.pre = pre
	b.e.finishWeights(b.w.tls13W, b.w.totalW)
	return &Pipeline{e: b.e, workers: workerCount(b.e.input.Workers)}
}

package stream

import (
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
)

// batch is a pooled group of connections traveling the window's ingest
// channel as one entry — the only ingest mechanism; IngestConn routes a
// batch of one. Certificates never travel: the router admits them into
// its roster.
//
// Ownership: the router copies the caller's records into a pooled batch,
// so the caller may reuse its slice (and the records' backing storage it
// owns) immediately. The apply loop copies the records into the retained
// window and recycles the batch — the window copies-on-retain, never
// aliasing pooled memory.
type batch struct {
	// seqs aligns with conns: the sequence the router admitted each
	// connection under.
	conns []core.ConnRecord
	seqs  []uint64
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func newBatch() *batch { return batchPool.Get().(*batch) }

// recycle clears the batch (dropping references so pooled memory cannot
// pin records) and returns it to the pool.
func (b *batch) recycle() {
	clear(b.conns)
	b.conns, b.seqs = b.conns[:0], b.seqs[:0]
	batchPool.Put(b)
}

// sendBatch delivers b as one channel operation. Returns false (without
// recycling b) when the batch was shed or the window is closed.
func (w *window) sendBatch(b *batch) bool {
	return w.send(event{batch: b, enq: time.Now()}, w.cfg.Policy == Block)
}

// applyBatchLocked applies one pooled batch, growing the retained window
// once, and recycles it.
func (w *window) applyBatchLocked(b *batch) {
	// The retained window is multi-megabyte at steady state; append's
	// 1.25× growth regime there costs ~4× the final size in copy churn
	// (half the benchmark's allocated bytes before this). The store
	// at-least-doubles instead.
	w.st.GrowConns(len(b.conns))
	for i := range b.conns {
		w.applyConnLocked(&b.conns[i], b.seqs[i])
	}
	b.recycle()
}

// IngestConnBatch feeds a slice of connection events: the router resolves
// each one's server leaf against the roster — the one certificate probe a
// connection costs — and runs the §3.2 detector over the pair, which parks
// the observation when the certificate has not been admitted yet; it then
// numbers the slice under one lock acquisition and delivers it, in arrival
// order, over one channel operation, amortizing the channel hop and the
// apply loop's lock over the slice. Records are copied; the caller may
// reuse recs and its elements. Invalid records (weight below 1) are
// rejected individually and counted in Stats.Rejected. Returns how many
// events were accepted — 0 when the engine is closed, or when a full
// buffer under Policy Drop shed the slice, atomically, counted per event
// in Stats.Dropped; the detector keeps what it saw in a shed connection.
func (s *Engine) IngestConnBatch(recs []core.ConnRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	b := newBatch()
	for i := range recs {
		rec := &recs[i]
		if rec.Weight < 1 {
			s.reject()
			continue
		}
		if fp := rec.ServerLeaf(); fp != "" {
			// A leaf not admitted yet parks the observation in the
			// detector; the certificate's arrival drains it, and the merged
			// view completes the connection's enrichment in place
			// (core.Builder.AddCert).
			s.icpt.Observe(rec, s.certs[fp])
		}
		b.conns = append(b.conns, *rec)
		b.seqs = append(b.seqs, s.nextSeq)
		s.nextSeq++
	}
	s.publishLocked()
	// Read before the send: on success the apply loop owns (and recycles)
	// the batch.
	n := len(b.conns)
	if n == 0 || !s.win.sendBatch(b) {
		b.recycle()
		return 0
	}
	return n
}

// IngestCertBatch admits a batch of certificates into the roster under one
// router lock acquisition, first observation of a fingerprint wins. An
// admitted certificate is readable at once and crosses no buffer — Policy
// Drop never sheds one — and the detector drains the observations parked
// on it before the call returns. Nil certificates and empty fingerprints
// are rejected individually; accepted certificates are retained by
// pointer. Returns how many records were accepted (duplicates included) —
// 0 when the engine is closed.
func (s *Engine) IngestCertBatch(recs []core.CertRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	admitted := 0
	for i := range recs {
		c := recs[i].Cert
		if c == nil || c.Fingerprint == "" {
			s.reject()
			continue
		}
		admitted++
		if s.certs[c.Fingerprint] != nil {
			continue
		}
		s.admitLocked(c, s.nextSeq)
		s.nextSeq++
	}
	s.certsRouted.Add(uint64(admitted))
	s.m.certsIngested.Add(uint64(admitted))
	s.publishLocked()
	return admitted
}

// admitLocked appends a certificate first observed under seq to the roster
// and hands it to the detector.
func (s *Engine) admitLocked(c *certmodel.CertInfo, seq uint64) {
	s.certs[c.Fingerprint] = c
	s.roster = append(s.roster, c)
	s.certSeqs = append(s.certSeqs, seq)
	s.icpt.ObserveCert(c)
}

// publishLocked publishes, at the end of an ingest batch, what is read
// without the router lock: the roster's length (Stats, the merged view's
// version vector, the gauge) and the detector's three sizes (Stats); and
// it wakes whoever waits on NextPublish.
func (s *Engine) publishLocked() {
	s.rosterLen.Store(uint64(len(s.roster)))
	s.m.rosterSize.Set(float64(len(s.roster)))
	s.parked.Store(int64(s.icpt.PendingCount()))
	s.excluded.Store(int64(s.icpt.ExcludedCount()))
	s.confirmed.Store(int64(s.icpt.ConfirmedCount()))
	if s.published != nil {
		close(s.published)
		s.published = nil
	}
}

// NextPublish returns a channel closed when the router next publishes an
// ingest batch. Take it before the export it follows up on, so a batch
// published in between is not missed. The channel is allocated only
// when someone waits: an engine nobody follows pays one nil check per
// batch.
func (s *Engine) NextPublish() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.published == nil {
		s.published = make(chan struct{})
	}
	return s.published
}

// reject counts one invalid event refused at the ingest boundary.
func (s *Engine) reject() {
	s.rejected.Add(1)
	s.m.rejected.Inc()
}

package stream

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
)

// batch is a pooled group of events traveling a shard's ingest channel as
// one entry — the only ingest mechanism; IngestConn/IngestCert route a
// batch of one. It carries the shard's connections, each beside the
// server leaf certificate the router resolved for it, and ahead of them
// any wakes: certificates that arrived after the shard parked an
// observation on their fingerprint.
//
// Ownership: the router copies the caller's records into a pooled batch
// per shard, so the caller may reuse its slice (and the records' backing
// storage it owns) immediately. The apply loop copies connection records
// into the shard's retained window and recycles the batch — the shard
// copies-on-retain, never aliasing pooled memory. Certificate pointers
// are shared, not copied: they are the router's roster entries.
type batch struct {
	// certs are the wakes. A full buffer sheds a batch's connections but
	// the router keeps its wakes for the next send — the detector still
	// holds the observations parked on them.
	certs []*certmodel.CertInfo
	// leaves and seqs align with conns: the server leaf as the router
	// resolved it (nil: not arrived yet) and the sequence it admitted the
	// connection under.
	conns  []core.ConnRecord
	leaves []*certmodel.CertInfo
	seqs   []uint64
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func newBatch() *batch { return batchPool.Get().(*batch) }

// dropConns clears the connections (dropping references so pooled memory
// cannot pin records or certificates), keeping the wakes.
func (b *batch) dropConns() {
	clear(b.conns)
	clear(b.leaves)
	b.conns, b.leaves, b.seqs = b.conns[:0], b.leaves[:0], b.seqs[:0]
}

// recycle clears the batch and returns it to the pool.
func (b *batch) recycle() {
	b.dropConns()
	clear(b.certs)
	b.certs = b.certs[:0]
	batchPool.Put(b)
}

// sendBatch delivers b as one channel operation. Returns false (without
// recycling b — the router keeps its wakes) when the batch was shed or the
// shard is closed.
func (e *shard) sendBatch(b *batch) bool {
	return e.send(event{batch: b, enq: time.Now()}, e.cfg.Policy == Block)
}

// applyBatchLocked applies one pooled batch — wakes first, then
// connections, growing the retained window once — and recycles it.
func (e *shard) applyBatchLocked(b *batch) {
	for _, c := range b.certs {
		e.icpt.ObserveCert(c)
	}
	if len(b.certs) > 0 {
		e.stateVer.Add(1) // the verdict may have moved
	}
	if len(b.conns) > 0 {
		// The retained window is multi-megabyte at steady state; append's
		// 1.25× growth regime there costs ~4× the final size in copy churn
		// (half the benchmark's allocated bytes before this). The store
		// at-least-doubles instead.
		e.st.GrowConns(len(b.conns))
		for i := range b.conns {
			e.applyConnLocked(&b.conns[i], b.leaves[i], b.seqs[i])
		}
	}
	b.recycle()
}

// IngestConnBatch feeds a slice of connection events: the router resolves
// each one's server leaf against the roster — the one certificate probe a
// connection costs; a fingerprint not admitted yet marks the home shard as
// waiting on it — partitions the slice by home shard (hash of the
// connection UID) under one lock acquisition and delivers each shard's
// share, in arrival order, over one channel operation, amortizing the
// channel hop and the apply loop's lock over the slice. Records are
// copied; the caller may reuse recs and its elements. Invalid records
// (weight below 1) are rejected individually and counted in
// Stats.Rejected. Returns how many events were accepted — 0 when the
// engine is closed; a shard whose full buffer sheds its slice under Policy
// Drop sheds it atomically, counted per event in Stats.Dropped.
func (s *Engine) IngestConnBatch(recs []core.ConnRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Weight < 1 {
			s.reject()
			continue
		}
		h := s.home(string(rec.UID))
		var leaf *certmodel.CertInfo
		if fp := rec.ServerLeaf(); fp != "" {
			ent := s.rendezvousFor(fp)
			if leaf = ent.cert; leaf == nil {
				// The detector parks the observation; the certificate's
				// arrival wakes it, and the merged view completes the
				// connection's enrichment in place (core.Builder.AddCert).
				ent.waiting |= uint64(1) << h
			}
		}
		b := s.shardBatch(h)
		b.conns = append(b.conns, *rec)
		b.leaves = append(b.leaves, leaf)
		b.seqs = append(b.seqs, s.nextSeq)
		s.nextSeq++
	}
	return s.flushScratchLocked()
}

// IngestCertBatch admits a batch of certificates into the roster under one
// router lock acquisition, first observation of a fingerprint wins. An
// admitted certificate is readable at once and crosses no shard buffer —
// Policy Drop never sheds one; only a shard waiting on the fingerprint is
// sent anything, a wake for its parked observations. Nil certificates and
// empty fingerprints are rejected individually; accepted certificates are
// retained by pointer. Returns how many records were accepted (duplicates
// included) — 0 when the engine is closed.
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
		ent := s.rendezvousFor(c.Fingerprint)
		if ent.cert != nil {
			continue
		}
		ent.cert = c
		s.roster = append(s.roster, c)
		s.certSeqs = append(s.certSeqs, s.nextSeq)
		s.nextSeq++
		for w := ent.waiting; w != 0; w &= w - 1 {
			b := s.shardBatch(bits.TrailingZeros64(w))
			b.certs = append(b.certs, c)
		}
		ent.waiting = 0 // the wakes are queued, and kept until a send is accepted
	}
	s.certsRouted.Add(uint64(admitted))
	s.m.certsIngested.Add(uint64(admitted))
	s.rosterGrewLocked()
	s.flushScratchLocked()
	return admitted
}

// rosterGrewLocked publishes the roster's length to the lock-free readers
// (Stats, the merged view's version vector) and the gauge.
func (s *Engine) rosterGrewLocked() {
	s.rosterLen.Store(uint64(len(s.roster)))
	s.m.rosterSize.Set(float64(len(s.roster)))
}

// reject counts one invalid event refused at the ingest boundary.
func (s *Engine) reject() {
	s.rejected.Add(1)
	s.m.rejected.Inc()
}

// rendezvousFor returns fp's rendezvous entry, creating it on first
// reference — carved from a slab, so a new fingerprint costs the map
// insert and not a heap object of its own. Caller holds mu.
func (s *Engine) rendezvousFor(fp ids.Fingerprint) *rendezvous {
	ent := s.rv[fp]
	if ent == nil {
		if len(s.rvSlab) == 0 {
			s.rvSlab = make([]rendezvous, 256)
		}
		ent, s.rvSlab = &s.rvSlab[0], s.rvSlab[1:]
		s.rv[fp] = ent
	}
	return ent
}

// shardBatch returns shard h's pending batch in the scratch partition
// table, creating it on first use. Caller holds mu.
func (s *Engine) shardBatch(h int) *batch {
	b := s.scratch[h]
	if b == nil {
		b = newBatch()
		s.scratch[h] = b
	}
	return b
}

// flushScratchLocked sends every pending per-shard batch. A shard that
// sheds its batch (Policy Drop, full buffer) loses the connections; the
// wakes stay in the scratch table and go out with whatever is sent there
// next. Returns the number of connection events accepted across shards.
func (s *Engine) flushScratchLocked() int {
	accepted := 0
	for h, b := range s.scratch {
		if b == nil || len(b.conns)+len(b.certs) == 0 {
			continue
		}
		// Counts are captured before the send: on success the apply loop
		// owns (and recycles) the batch.
		nConns := len(b.conns)
		routed := s.routed[h]
		if nConns > 0 {
			routed = b.seqs[nConns-1] + 1
		}
		if !s.shards[h].sendBatch(b) {
			b.dropConns()
			continue
		}
		accepted += nConns
		s.routed[h] = routed
		s.scratch[h] = nil
	}
	return accepted
}

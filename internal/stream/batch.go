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
// batch of one. Certificates apply first, then connections (a connection
// routed behind its forwarded leaf certificate must find it on the
// roster when it is observed).
//
// Ownership: the router copies the caller's records into a pooled batch
// per shard, so the caller may reuse its slice (and the records' backing
// storage it owns) immediately. The apply loop copies connection records
// into the shard's retained window and recycles the batch — the shard
// copies-on-retain, never aliasing pooled memory. Certificate pointers
// are shared, not copied: the roster retains the *certmodel.CertInfo
// itself.
type batch struct {
	// certSeqs aligns with certs, seqs with conns: the sequence the router
	// admitted each under.
	certs    []*certmodel.CertInfo
	certSeqs []uint64
	conns    []core.ConnRecord
	seqs     []uint64
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func newBatch() *batch { return batchPool.Get().(*batch) }

// recycle clears the batch (dropping references so pooled memory cannot
// pin records or certificates) and returns it to the pool.
func (b *batch) recycle() {
	clear(b.certs)
	clear(b.conns)
	b.certs, b.certSeqs = b.certs[:0], b.certSeqs[:0]
	b.conns, b.seqs = b.conns[:0], b.seqs[:0]
	batchPool.Put(b)
}

// sendBatch delivers b as one channel operation. Returns false (without
// recycling b — the router still needs its contents to undo routing
// state) when the batch was shed or the shard is closed.
func (e *shard) sendBatch(b *batch) bool {
	return e.send(event{batch: b, enq: time.Now()}, e.cfg.Policy == Block)
}

// applyBatchLocked applies one pooled batch — certificates first, then
// connections — growing the retained window once, and recycles it.
func (e *shard) applyBatchLocked(b *batch) {
	for i, c := range b.certs {
		e.applyCertLocked(c, b.certSeqs[i])
	}
	if len(b.conns) > 0 {
		// The retained window is multi-megabyte at steady state; append's
		// 1.25× growth regime there costs ~4× the final size in copy churn
		// (half the benchmark's allocated bytes before this). The store
		// at-least-doubles instead.
		e.st.GrowConns(len(b.conns))
		for i := range b.conns {
			e.applyConnLocked(&b.conns[i], b.seqs[i])
		}
	}
	b.recycle()
}

// IngestConnBatch feeds a slice of connection events: the router
// partitions it by home shard (hash of the connection UID) under one lock
// acquisition and delivers each shard's slice — any already-arrived leaf
// certificates the shard has not seen first, then its connections, in
// arrival order — over one channel operation, amortizing the channel hop
// and the apply loop's lock over the slice. Records are copied; the
// caller may reuse recs and its elements. Invalid records (weight below
// 1) are rejected individually and counted in Stats.Rejected. Returns how
// many events were accepted — 0 when the engine is closed; a shard whose
// full buffer sheds its slice under Policy Drop sheds it atomically,
// counted per event in Stats.Dropped.
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
		bit := uint64(1) << h
		for _, fp := range [2]ids.Fingerprint{rec.ServerLeaf(), rec.ClientLeaf()} {
			if fp == "" {
				continue
			}
			ent := s.rendezvousFor(fp)
			if ent.cert == nil {
				// The certificate has not arrived; when it does, the
				// rendezvous forwards it here, where it wakes the shard's
				// parked detector observations; the merged view prices the
				// lateness (core.ReplayLateCert).
				ent.waiting |= bit
			} else if ent.delivered&bit == 0 {
				s.deliverLocked(h, ent)
			}
		}
		b := s.shardBatch(h)
		b.conns = append(b.conns, *rec)
		b.seqs = append(b.seqs, s.nextSeq)
		s.nextSeq++
	}
	return s.flushScratchLocked()
}

// IngestCertBatch admits a batch of certificates into the rendezvous
// under one router lock acquisition and delivers each to its
// fingerprint's home shard plus every shard already waiting on it, one
// channel operation per shard. Shards that reference a fingerprint later
// receive it from the rendezvous at routing time. Nil certificates and
// empty fingerprints are rejected individually; accepted certificates are
// shared with the shards' rosters by pointer. Returns how many records
// were admitted into the rendezvous (a delivery shed under Policy Drop is
// retried by the next reference) — 0 when the engine is closed.
func (s *Engine) IngestCertBatch(recs []core.CertRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	admitted := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Cert == nil || rec.Cert.Fingerprint == "" {
			s.reject()
			continue
		}
		s.certsRouted++
		admitted++
		fp := rec.Cert.Fingerprint
		ent := s.rendezvousFor(fp)
		if ent.cert == nil {
			// First observation wins; the home shard guarantees every
			// certificate survives in the union roster even if no
			// connection ever references it.
			ent.cert = rec.Cert
			ent.seq = s.nextSeq
			if s.cfg.TrackExport {
				s.certLog = append(s.certLog, ExportCert{Seq: ent.seq, Cert: ent.cert})
			}
			s.nextSeq++
			s.uniqueCerts++
			ent.waiting |= uint64(1) << s.home(string(fp))
		}
		// Every shard waiting on it that does not have it yet, lowest first.
		for pending := ent.waiting &^ ent.delivered; pending != 0; pending &= pending - 1 {
			s.deliverLocked(bits.TrailingZeros64(pending), ent)
		}
	}
	s.flushScratchLocked()
	return admitted
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

// deliverLocked queues ent's certificate, under the sequence it was
// admitted with, ahead of whatever else shard h's pending batch carries.
// Delivery is marked optimistically; flushScratchLocked unmarks it if the
// shard sheds the batch. Caller holds mu.
func (s *Engine) deliverLocked(h int, ent *rendezvous) {
	b := s.shardBatch(h)
	b.certs = append(b.certs, ent.cert)
	b.certSeqs = append(b.certSeqs, ent.seq)
	ent.delivered |= uint64(1) << h
}

// flushScratchLocked sends every accumulated per-shard batch and resets
// the scratch table. A shard that sheds its batch (Policy Drop, full
// buffer) gets its optimistic rendezvous delivery marks rolled back so a
// later reference re-forwards the certificates. Returns the number of
// connection events accepted across shards.
func (s *Engine) flushScratchLocked() int {
	accepted := 0
	for h, b := range s.scratch {
		if b == nil {
			continue
		}
		s.scratch[h] = nil
		// Counts are captured before the send: on success the apply loop
		// owns (and recycles) the batch.
		nConns, nCerts := len(b.conns), len(b.certs)
		routed := s.routed[h]
		if nConns > 0 {
			routed = b.seqs[nConns-1] + 1
		}
		if s.shards[h].sendBatch(b) {
			accepted += nConns
			s.routed[h] = routed
			s.m.fanout.Add(uint64(nCerts))
			continue
		}
		bit := uint64(1) << h
		for _, c := range b.certs {
			if ent := s.rv[c.Fingerprint]; ent != nil {
				ent.delivered &^= bit
			}
		}
		b.recycle()
	}
	return accepted
}

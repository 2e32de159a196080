package stream

import (
	"slices"
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
)

// batch is a pooled group of events traveling the ingest channel as one
// entry — the only ingest mechanism; IngestConn/IngestCert send a batch
// of one. Certificates apply first, then connections (a connection
// routed behind its forwarded leaf certificate must find it on the
// roster when it is enriched).
//
// Ownership: IngestConnBatch/IngestCertBatch copy the caller's records
// into a pooled batch, so the caller may reuse its slice (and the
// records' backing storage it owns) immediately. The apply loop copies
// connection records into the engine's retained window and recycles the
// batch — the engine copies-on-retain, never aliasing pooled memory.
// Certificate pointers are shared, not copied: the roster retains the
// *certmodel.CertInfo itself.
type batch struct {
	certs []*certmodel.CertInfo
	conns []core.ConnRecord
	// seqs aligns with conns (global ingest sequences) when the engine
	// tracks them for the sharded merge; nil otherwise.
	seqs []uint64
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func newBatch() *batch { return batchPool.Get().(*batch) }

// recycle clears the batch (dropping references so pooled memory cannot
// pin records or certificates) and returns it to the pool.
func (b *batch) recycle() {
	clear(b.certs)
	clear(b.conns)
	b.certs = b.certs[:0]
	b.conns = b.conns[:0]
	b.seqs = b.seqs[:0]
	batchPool.Put(b)
}

// IngestConnBatch feeds a slice of connection events in one channel
// operation, amortizing the channel hop and the apply loop's lock over
// the slice. Records are copied; the caller may reuse recs and its
// elements. Invalid records (weight below 1) are rejected individually
// and counted in Stats.Rejected. Returns how many events were accepted —
// 0 when the engine is closed or a full buffer shed the whole batch
// under Policy Drop (batches are shed atomically, counted per event in
// Stats.Dropped).
func (e *Engine) IngestConnBatch(recs []core.ConnRecord) int {
	if len(recs) == 0 {
		return 0
	}
	b := newBatch()
	b.conns = slices.Grow(b.conns, len(recs))
	for i := range recs {
		if recs[i].Weight < 1 {
			e.reject()
			continue
		}
		b.conns = append(b.conns, recs[i])
	}
	return e.sendOrRecycle(b)
}

// IngestCertBatch feeds a slice of certificate events in one channel
// operation. Nil certificates and empty fingerprints are rejected
// individually; accepted certificates are shared with the engine's
// roster by pointer. Returns how many events were accepted.
func (e *Engine) IngestCertBatch(recs []core.CertRecord) int {
	if len(recs) == 0 {
		return 0
	}
	b := newBatch()
	b.certs = slices.Grow(b.certs, len(recs))
	for i := range recs {
		if recs[i].Cert == nil || recs[i].Cert.Fingerprint == "" {
			e.reject()
			continue
		}
		b.certs = append(b.certs, recs[i].Cert)
	}
	return e.sendOrRecycle(b)
}

// sendOrRecycle delivers a validated batch and returns how many events
// it carried; an empty, shed or refused batch goes back to the pool and
// counts 0.
func (e *Engine) sendOrRecycle(b *batch) int {
	n := len(b.certs) + len(b.conns)
	if n == 0 || !e.sendBatch(b) {
		b.recycle()
		return 0
	}
	return n
}

// sendBatch delivers b as one channel operation. Returns false (without
// recycling b — the caller may still need its contents to undo routing
// state) when the batch was shed or the engine is closed.
func (e *Engine) sendBatch(b *batch) bool {
	return e.send(event{batch: b, enq: time.Now()}, e.cfg.Policy == Block)
}

// applyBatchLocked applies one pooled batch — certificates first, then
// connections — growing the retained window once, and recycles it.
func (e *Engine) applyBatchLocked(b *batch) {
	for _, c := range b.certs {
		e.applyCertLocked(c)
	}
	if len(b.conns) > 0 {
		// The retained window is multi-megabyte at steady state; append's
		// 1.25× growth regime there costs ~4× the final size in copy churn
		// (half the benchmark's allocated bytes before this). The store
		// at-least-doubles instead.
		e.st.GrowConns(len(b.conns))
		for i := range b.conns {
			var seq uint64
			if len(b.seqs) == len(b.conns) {
				seq = b.seqs[i]
			}
			e.applyConnLocked(&b.conns[i], seq)
		}
	}
	b.recycle()
}

// IngestConnBatch is the router: it partitions the batch by home shard
// (hash of the connection UID) under one lock acquisition and delivers
// each shard's slice — any already-arrived leaf certificates the shard
// has not seen first, then its connections, in arrival order — over one
// channel operation, so the shard's detector resolves the leaf just as a
// single engine's would. Validation matches Engine.IngestConnBatch.
// Returns how many events were accepted.
func (s *Sharded) IngestConnBatch(recs []core.ConnRecord) int {
	if len(recs) == 0 {
		return 0
	}
	if s.single != nil {
		return s.single.IngestConnBatch(recs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		rec := &recs[i]
		if rec.Weight < 1 {
			s.reject()
			continue
		}
		h := s.home(string(rec.UID))
		bit := uint64(1) << h
		b := s.shardBatch(h)
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
				continue
			}
			if ent.delivered&bit == 0 {
				// Delivery is marked optimistically; flushScratchLocked
				// unmarks it if the shard sheds the batch.
				b.certs = append(b.certs, ent.cert)
				ent.delivered |= bit
			}
		}
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
// receive it from the rendezvous at routing time. Validation matches
// Engine.IngestCertBatch. Returns how many records were admitted into
// the rendezvous (a delivery shed under Policy Drop is retried by the
// next reference).
func (s *Sharded) IngestCertBatch(recs []core.CertRecord) int {
	if len(recs) == 0 {
		return 0
	}
	if s.single != nil {
		return s.single.IngestCertBatch(recs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
			// First observation wins, as on a single engine's roster; the
			// home shard guarantees every certificate survives in the union
			// roster even if no connection ever references it.
			ent.cert = rec.Cert
			ent.seq = s.nextSeq
			if s.cfg.TrackExport {
				s.certLog = append(s.certLog, ExportCert{Seq: ent.seq, Cert: ent.cert})
			}
			s.nextSeq++
			s.uniqueCerts++
			ent.waiting |= uint64(1) << s.home(string(fp))
		}
		for sh := range s.shards {
			bit := uint64(1) << sh
			if ent.waiting&bit == 0 || ent.delivered&bit != 0 {
				continue
			}
			b := s.shardBatch(sh)
			b.certs = append(b.certs, ent.cert)
			ent.delivered |= bit
		}
	}
	s.flushScratchLocked()
	return admitted
}

// reject counts one invalid event refused by the router.
func (s *Sharded) reject() {
	s.rejected.Add(1)
	s.m.rejected.Inc()
}

// rendezvousFor returns fp's rendezvous entry, creating it on first
// reference. Caller holds mu.
func (s *Sharded) rendezvousFor(fp ids.Fingerprint) *rendezvous {
	ent := s.rv[fp]
	if ent == nil {
		ent = &rendezvous{}
		s.rv[fp] = ent
	}
	return ent
}

// shardBatch returns shard h's pending batch in the scratch partition
// table, creating either on first use. Caller holds mu.
func (s *Sharded) shardBatch(h int) *batch {
	if s.scratch == nil {
		s.scratch = make([]*batch, len(s.shards))
	}
	b := s.scratch[h]
	if b == nil {
		b = newBatch()
		s.scratch[h] = b
	}
	return b
}

// flushScratchLocked sends every accumulated per-shard batch and resets
// the scratch table. A shard that sheds its batch (Policy Drop, full
// buffer) gets its optimistic rendezvous delivery marks rolled back so a
// later reference re-forwards the certificates. Returns the number of
// connection events accepted across shards.
func (s *Sharded) flushScratchLocked() int {
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

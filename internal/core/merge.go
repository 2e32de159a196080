package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/interception"
)

// ShardState is one shard's raw admitted event stream: the certificate
// roster it accumulated plus the retained connections in shard-local
// ingest order, each stamped with the global ingest sequence the router
// assigned. It is the unit the sharded stream engine hands to
// MergeShards when a report is materialized.
type ShardState struct {
	// Certs is the shard's certificate roster. Shards may overlap (a
	// certificate fanned out to every shard that referenced it);
	// MergeShards deduplicates by fingerprint, first observation wins.
	Certs []*certmodel.CertInfo
	// Conns are the retained connections, ascending in ingest order.
	Conns []ConnRecord
	// Seqs holds the global ingest sequence of each connection in Conns
	// (len(Seqs) == len(Conns), ascending). The sequence restores the
	// single-stream interleaving across shards.
	Seqs []uint64
}

// MergeShards is the Builder's merge hook: it replays independently
// accumulated shard states through one fresh Builder, restoring the
// global ingest order with a k-way merge on the sequence numbers, and
// returns the Builder ready to materialize a Pipeline.
//
// exclude is the global §3.2 verdict (nil excludes nothing): excluded
// certificates are kept out of the chain-resolution roster and
// connections whose server leaf is excluded are filtered, exactly as
// interception.Filter drops them on the batch path and as a single
// engine's rebuild drops them on the streaming path. Because every
// certificate is admitted before any connection and connections replay
// in global sequence order, the result is deeply equal to a single
// engine draining the same event stream — at any shard count.
func MergeShards(in *Input, shards []ShardState, exclude func(ids.Fingerprint) bool) *Builder {
	if exclude == nil {
		exclude = func(ids.Fingerprint) bool { return false }
	}
	b := NewBuilder(in)
	for i := range shards {
		for _, c := range shards[i].Certs {
			if !exclude(c.Fingerprint) {
				b.AddCert(c)
			}
		}
	}
	// K-way merge on the global sequence stamps. Each shard's list is
	// already ascending (the router assigns sequences in send order), so
	// a linear head comparison per step suffices; shard counts are small
	// (bounded by CPU count), making a heap pointless overhead.
	idx := make([]int, len(shards))
	for {
		best := -1
		var bestSeq uint64
		for s := range shards {
			if idx[s] >= len(shards[s].Conns) {
				continue
			}
			if seq := shards[s].Seqs[idx[s]]; best < 0 || seq < bestSeq {
				best, bestSeq = s, seq
			}
		}
		if best < 0 {
			return b
		}
		rec := &shards[best].Conns[idx[best]]
		idx[best]++
		if sl := rec.ServerLeaf(); sl != "" && exclude(sl) {
			continue
		}
		b.AddConn(rec)
	}
}

// MergeCapture is one consistent snapshot of a MergedView's sources.
type MergeCapture struct {
	// Shards is each source's raw state, ready for MergeShards.
	Shards []ShardState
	// Versions is the version vector the captured state reflects — the
	// cache key, read under the same locks as the state so the two
	// cannot disagree.
	Versions []uint64
	// Verdict is the global §3.2 verdict over exactly the captured state:
	// the owner's evidence union, caught up with each source under the
	// same lock hold as that source's snapshot. Per-source verdicts are
	// never merged.
	Verdict *interception.Result
	// RawConns counts connection events ingested across the sources,
	// before filtering and eviction.
	RawConns uint64
}

// MergedView is the merged materialization of several independently
// accumulated sources — the shards of one sharded engine, or the sensors
// behind an aggregator — cached on their version vector: while no source
// moves, every report reuses one Builder; any component bump costs one
// full replay through MergeShards. It is the one place that decision
// lives, so an incremental merger has a single seam to replace.
//
// A MergedView with its four exported fields set is ready to use.
type MergedView struct {
	// Input is the analysis context every replay runs under.
	Input *Input
	// Versions reads the sources' current version vector. It runs on
	// every materialization, so it must be cheap.
	Versions func() []uint64
	// Capture snapshots every source for a replay. The returned slices
	// must stay valid without the sources' locks.
	Capture func() MergeCapture
	// OnMerge observes each replay's duration — the caller's merge
	// counter and histogram.
	OnMerge func(time.Duration)

	mu     sync.Mutex
	vers   []uint64 // vector the cached merge reflects
	b      *Builder // nil until the first merge
	pre    *PreprocessReport
	merges uint64
}

// WithPipeline runs fn over the merged pipeline; fn must not retain it.
// The sources keep ingesting while fn runs.
func (v *MergedView) WithPipeline(fn func(*Pipeline)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	b, pre := v.mergedLocked()
	fn(b.Pipeline(pre))
}

// mergedLocked returns the global Builder and preprocess report,
// replaying the sources when any moved since the last merge.
func (v *MergedView) mergedLocked() (*Builder, *PreprocessReport) {
	if v.b != nil && slices.Equal(v.Versions(), v.vers) {
		return v.b, v.pre
	}
	t0 := time.Now()
	c := v.Capture()
	// Rosters overlap (a certificate is fanned out to every source that
	// referenced it); the raw count is of distinct fingerprints.
	seen := make(map[ids.Fingerprint]bool)
	for i := range c.Shards {
		for _, cert := range c.Shards[i].Certs {
			seen[cert.Fingerprint] = true
		}
	}
	res := c.Verdict
	v.pre = &PreprocessReport{
		InterceptionIssuers: res.Issuers,
		ExcludedCerts:       len(res.ExcludedCerts),
		ExcludedShare:       res.ExcludedShare(len(seen)),
		RawCerts:            len(seen),
		RawConns:            int(c.RawConns),
	}
	v.b = MergeShards(v.Input, c.Shards, func(fp ids.Fingerprint) bool {
		return res.ExcludedCerts[fp]
	})
	v.vers = c.Versions
	v.merges++
	v.OnMerge(time.Since(t0))
	return v.b, v.pre
}

// Stats reports how many replays the view has run and whether a source
// has moved since the last one (or none has run yet).
func (v *MergedView) Stats() (merges uint64, stale bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.merges, v.b == nil || !slices.Equal(v.Versions(), v.vers)
}

package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/interception"
)

// ShardState is one source's raw admitted event stream: the certificates
// it holds plus the retained connections in source-local ingest order,
// each stamped with the global ingest sequence its owner assigned. It is
// the unit a MergedView's owner hands over when a report is materialized;
// a source may hold only one of the two (the stream engine keeps its one
// roster in a source of its own, beside its shards' windows).
type ShardState struct {
	// Certs is the source's certificate roster. Sources may overlap (every
	// sensor of a fleet sees the same issuers); MergeShards deduplicates
	// by fingerprint, first observation wins.
	Certs []*certmodel.CertInfo
	// Conns are the retained connections, ascending in ingest order.
	Conns []ConnRecord
	// Seqs holds the global ingest sequence of each connection in Conns
	// (len(Seqs) == len(Conns), ascending). The sequence restores the
	// single-stream interleaving across shards; a source merged alone
	// (the batch preprocess's) leaves it nil.
	Seqs []uint64
}

// MergeShards is the Builder's merge hook: it replays independently
// accumulated shard states through one fresh Builder, restoring the
// global ingest order with a k-way merge on the sequence numbers, and
// returns the Builder ready to materialize a Pipeline.
//
// exclude is the global §3.2 verdict (nil excludes nothing): excluded
// certificates are kept out of the chain-resolution roster and
// connections whose server leaf is excluded are filtered, the rule
// mergeInto applies on every path, the batch preprocess's included.
// Because every certificate is admitted before any connection and
// connections replay in global sequence order, the result is deeply equal
// to a single engine draining the same event stream — at any shard count.
func MergeShards(in *Input, shards []ShardState, exclude func(ids.Fingerprint) bool) *Builder {
	if exclude == nil {
		exclude = func(ids.Fingerprint) bool { return false }
	}
	b := NewBuilder(in)
	mergeInto(b, shards, exclude)
	return b
}

// mergeInto adds shard states to b: every certificate exclude lets
// through, then the connections whose server leaf it lets through, in
// ascending sequence. A lone source with connections is taken in its own
// order, its Seqs unread. It returns how many connections it added, and
// how many views already in b its certificates completed
// (Builder.AddCert).
func mergeInto(b *Builder, shards []ShardState, exclude func(ids.Fingerprint) bool) (added, late int) {
	conns := 0
	for i := range shards {
		for _, c := range shards[i].Certs {
			if !exclude(c.Fingerprint) {
				late += b.AddCert(c)
			}
		}
		conns += len(shards[i].Conns)
	}
	b.GrowConns(conns) // one reallocation at most, doubling: the view slice is the window's size
	// K-way merge on the global sequence stamps. Each shard's list is
	// already ascending (the router assigns sequences in send order), so
	// a linear head comparison per step suffices; shard counts are small
	// (bounded by CPU count), making a heap pointless overhead.
	idx := make([]int, len(shards))
	for {
		best := -1
		for s := range shards {
			if idx[s] < len(shards[s].Conns) &&
				(best < 0 || shards[s].Seqs[idx[s]] < shards[best].Seqs[idx[best]]) {
				best = s
			}
		}
		if best < 0 {
			return added, late
		}
		rec := &shards[best].Conns[idx[best]]
		idx[best]++
		sl := rec.ServerLeaf()
		if sl != "" && exclude(sl) {
			continue
		}
		b.AddConn(rec)
		added++
	}
}

// MergeCursor is where a MergedView stands in one source: what it has
// already merged and must not be handed again.
type MergeCursor struct {
	// Certs counts the entries of the source's roster log already merged.
	Certs int
	// Seq is one past the highest connection sequence merged from the
	// source; 0 before any.
	Seq uint64
}

// MergeCapture is one consistent snapshot of a MergedView's sources.
type MergeCapture struct {
	// Shards is what each source appended since the cursor it was asked
	// from — the roster-log entries from Certs on and the retained
	// connections at or after Seq — ready for MergeShards. From the zero
	// cursor that is the source's whole state.
	Shards []ShardState
	// Versions is the version vector the captured state reflects — the
	// cache key, read under the same locks as the state so the two
	// cannot disagree.
	Versions []uint64
	// Lost counts, per source, how often it dropped or replaced records
	// it had already appended (eviction, a sensor starting over). A
	// cursor into a source whose count moved is meaningless; the view
	// replays.
	Lost []uint64
	// Verdict is the global §3.2 verdict, never a merge of per-source
	// ones: an engine's one detector's, over every connection it has
	// routed — the captured ones and any still in flight; an aggregator's
	// evidence union's, over its sensors' evidence. It must not exclude a
	// certificate no source lists.
	Verdict *interception.Result
	// RawConns counts connection events ingested across the sources,
	// before filtering and eviction; RawCerts the distinct certificates
	// on their rosters (rosters may overlap, so it is the owner's count).
	RawConns uint64
	RawCerts int
	// Copies says the connection slices in Shards are private copies made
	// for this capture (a tiered window decoding its cold records), not
	// headers over memory the source holds anyway. A Builder fed from them
	// is the only thing keeping them alive, so the view lets it go after
	// the read it was built for.
	Copies bool
}

// ReplayReason names why a MergedView rebuilt its Builder from the
// sources' whole state instead of appending what was new.
type ReplayReason string

// The cases where appending would not equal replaying.
const (
	// ReplayFirst: the view has no Builder yet.
	ReplayFirst ReplayReason = "first"
	// ReplayLost: a source dropped or replaced records (MergeCapture.Lost),
	// or the verdict no longer excludes a certificate it did (an
	// aggregator's evidence union starting over with such a source).
	ReplayLost ReplayReason = "lost"
	// ReplayOrder: a source appended a connection that sorts at or below
	// one already merged. The owners number connections so that this does
	// not happen; if it does, the price is a replay, not a wrong report.
	ReplayOrder ReplayReason = "order"
)

// ReplayReasons lists every reason, for owners that pre-register one
// series per reason.
var ReplayReasons = []ReplayReason{ReplayFirst, ReplayLost, ReplayOrder}

// MergeStats is a MergedView's work so far.
type MergeStats struct {
	Merges   uint64 // catch-ups run, replays included
	Replays  uint64 // of those, rebuilds from the sources' whole state
	Enriched uint64 // connections enriched across all of them
	Late     uint64 // views re-enriched in place because their certificate came after them
	// Retracted counts the merged connections taken back out because the
	// §3.2 verdict came to exclude their server leaf after them.
	Retracted uint64
	Stale     bool // a source moved since the last catch-up, or no Builder is held
}

// MergedView is the merged materialization of several independently
// accumulated sources — the shards of one sharded engine, or the sensors
// behind an aggregator. It keeps one Builder for its owner's lifetime,
// cached on the sources' version vector: while no source moves, every
// report reuses it as is; when one does, the view asks each source only
// for what it appended since the view's cursor, takes out what a grown
// §3.2 verdict now excludes (Builder.Exclude), adds every source's new
// certificates, then the new connections in ascending sequence — the
// order a replay of the grown state would take, provided the owner
// numbers later appends after earlier ones; a certificate that trails
// connections naming it completes their views in place (Builder.AddCert).
// A read after new rows therefore costs the rows, the connections they
// were late for and the connections they excluded, not the window.
//
// Where appending would not equal replaying (the ReplayReason constants)
// the view starts a fresh Builder and runs the same merge over the
// sources' whole state — what MergeShards does, and what the tests hold
// every catch-up against.
//
// One case keeps no Builder at all: when a capture's records are private
// copies (MergeCapture.Copies — a tiered window), holding the Builder
// would pin every decoded record the window had spilled. The view drops
// it, and its cursors, as soon as the read it was built for returns;
// every read over such sources is a ReplayFirst.
//
// A MergedView with its four exported fields set is ready to use.
type MergedView struct {
	// Input is the analysis context every merge runs under.
	Input *Input
	// Versions reads the sources' current version vector. It runs on
	// every materialization, so it must be cheap.
	Versions func() []uint64
	// Capture snapshots what every source holds beyond since — one cursor
	// per source of the version vector; zero cursors ask for everything.
	// The returned slices must stay valid without the sources' locks.
	Capture func(since []MergeCursor) MergeCapture
	// OnMerge observes each catch-up's duration, why it was a replay when
	// it was one, how many views a late certificate made it re-enrich in
	// place and how many a grown verdict made it take back — the caller's
	// merge counters and histogram.
	OnMerge func(d time.Duration, replay ReplayReason, late, retracted int)

	// mu serializes readers: it is held across a catch-up and the fn that
	// reads the Builder after it.
	mu  sync.Mutex
	b   *Builder // nil until the first merge, and after a release
	pre *PreprocessReport
	// memos outlives b: a replacement Builder starts from the issuer
	// classifications its predecessors worked out.
	memos issuerMemos
	// cur is the view's position in each source; next is one past the
	// highest sequence merged from any of them.
	cur  []MergeCursor
	next uint64
	// verdict is the §3.2 verdict b was built under — a verdict that moved
	// is a new value (interception.Merge.Result) — and lost the sources'
	// loss counters then.
	verdict *interception.Result
	lost    []uint64
	// copies is the last capture's Copies: release after the read.
	copies bool

	// statMu guards what Stats reads — written under mu as well, so a
	// reader holding mu needs no statMu — and is never held across fn: a
	// health check does not wait behind a report scan.
	statMu sync.Mutex
	vers   []uint64 // vector the Builder reflects; nil while there is none
	stats  MergeStats
}

// WithPipeline runs fn over the merged pipeline; fn must not retain it.
// The sources keep ingesting while fn runs.
func (v *MergedView) WithPipeline(fn func(*Pipeline)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	b, pre := v.mergedLocked()
	fn(b.Pipeline(pre))
	if v.copies {
		v.b = nil
		clear(v.cur)
		v.statMu.Lock()
		v.vers = nil
		v.statMu.Unlock()
	}
}

// mergedLocked returns the global Builder and preprocess report, caught
// up with the sources when any moved since the last merge.
func (v *MergedView) mergedLocked() (*Builder, *PreprocessReport) {
	vers := v.Versions()
	if v.b != nil && slices.Equal(vers, v.vers) {
		return v.b, v.pre
	}
	t0 := time.Now()
	if v.cur == nil {
		v.cur = make([]MergeCursor, len(vers))
	}
	c := v.Capture(v.cur)
	why, newly := v.replayReason(&c)
	retracted := 0
	if why != "" {
		clear(v.cur)
		if v.b != nil {
			// What was captured is a suffix; a replay needs everything.
			c = v.Capture(v.cur)
		}
		v.b = NewBuilder(v.Input)
		v.b.shareIssuerMemos(&v.memos)
		v.next = 0
	} else {
		retracted = v.b.Exclude(newly)
	}
	res := c.Verdict
	n, late := mergeInto(v.b, c.Shards, res.Excludes)
	for i := range c.Shards {
		v.cur[i].Certs += len(c.Shards[i].Certs)
		if seqs := c.Shards[i].Seqs; len(seqs) > 0 {
			v.cur[i].Seq = seqs[len(seqs)-1] + 1
			v.next = max(v.next, v.cur[i].Seq)
		}
	}
	v.pre = &PreprocessReport{
		InterceptionIssuers: res.Issuers,
		ExcludedCerts:       len(res.ExcludedCerts),
		ExcludedShare:       res.ExcludedShare(c.RawCerts),
		RawCerts:            c.RawCerts,
		RawConns:            int(c.RawConns),
	}
	v.lost, v.verdict, v.copies = c.Lost, res, c.Copies
	v.statMu.Lock()
	v.vers = c.Versions
	v.stats.Merges++
	v.stats.Enriched += uint64(n)
	v.stats.Late += uint64(late)
	v.stats.Retracted += uint64(retracted)
	if why != "" {
		v.stats.Replays++
	}
	v.statMu.Unlock()
	v.OnMerge(time.Since(t0), why, late, retracted)
	return v.b, v.pre
}

// replayReason decides whether what c holds beyond the view's cursor can
// be appended to the Builder ("") or the sources must be replayed. With
// "" it also returns what c's verdict excludes that the Builder's did not,
// for the Builder to take back first.
func (v *MergedView) replayReason(c *MergeCapture) (ReplayReason, []ids.Fingerprint) {
	switch {
	case v.b == nil:
		return ReplayFirst, nil
	case !slices.Equal(c.Lost, v.lost):
		return ReplayLost, nil
	}
	var newly []ids.Fingerprint
	if c.Verdict != v.verdict {
		old := v.verdict.ExcludedCerts
		for fp := range c.Verdict.ExcludedCerts {
			if !old[fp] {
				newly = append(newly, fp)
			}
		}
		if len(c.Verdict.ExcludedCerts)-len(newly) != len(old) {
			return ReplayLost, nil // not a superset: an exclusion was withdrawn
		}
	}
	for i := range c.Shards {
		if seqs := c.Shards[i].Seqs; len(seqs) > 0 && seqs[0] < v.next {
			return ReplayOrder, nil
		}
	}
	return "", newly
}

// Stats reports the view's work so far and whether a source has moved
// since the last catch-up. It does not wait for a read in progress.
func (v *MergedView) Stats() MergeStats {
	now := v.Versions()
	v.statMu.Lock()
	defer v.statMu.Unlock()
	st := v.stats
	st.Stale = v.vers == nil || !slices.Equal(now, v.vers)
	return st
}

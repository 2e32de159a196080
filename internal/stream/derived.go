package stream

import (
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
)

// derived is an engine's derived state — the batch pipeline's enriched
// views, kept current incrementally and rebuilt from raw state when
// retroactive evidence invalidates them. All of it is guarded by the
// engine's state lock.
//
// A shard behind a router has none (Engine.d is nil): reports over a
// sharded deployment are materialized by replaying the shards' raw state
// through the merged view's own Builder, so a per-shard enrichment would
// be computed for nobody. The methods the apply path calls are no-ops on
// a nil receiver; the materialization methods are never reached on one.
type derived struct {
	e *Engine
	b *core.Builder
	// gen is the exclusion-set generation b reflects.
	gen uint64
	// missing tracks leaf fingerprints that an enriched connection failed
	// to resolve; the fingerprint arriving later invalidates that
	// enrichment.
	missing map[ids.Fingerprint]bool
	dirty   bool
	// tiered caches the window's Tiered(): the derived state is then never
	// maintained incrementally (the builder would pin records the window
	// spills) — it is rebuilt per materialization and released afterwards.
	tiered   bool
	rebuilds uint64
}

func newDerived(e *Engine) *derived {
	d := &derived{e: e, tiered: e.st.Tiered()}
	d.reset()
	return d
}

// reset replaces the derived state with an empty Builder. A tiered
// engine comes out of the reset dirty: its derived state is only ever
// valid transiently.
func (d *derived) reset() {
	d.b = core.NewBuilder(d.e.cfg.Input)
	d.missing = make(map[ids.Fingerprint]bool)
	d.gen = d.e.icpt.Gen()
	d.dirty = d.tiered
}

// invalidate marks the derived state for rebuild on the next
// materialization.
func (d *derived) invalidate() {
	if d != nil {
		d.dirty = true
	}
}

// stats reports the rebuild count and whether a rebuild is pending.
func (d *derived) stats() (rebuilds uint64, dirty bool) {
	if d == nil {
		return 0, false
	}
	return d.rebuilds, d.dirty
}

// restored adopts a checkpoint's rebuild count; the derived state itself
// does not exist yet and is rebuilt on demand.
func (d *derived) restored(rebuilds uint64) {
	if d != nil {
		d.rebuilds, d.dirty = rebuilds, true
	}
}

// growConns reserves room for n more enriched connections.
func (d *derived) growConns(n int) {
	if d != nil {
		d.b.GrowConns(n)
	}
}

// certAdmitted follows a first-observed certificate into the derived
// state: unless it arrived too late or is excluded, it becomes resolvable
// for future enrichment.
func (d *derived) certAdmitted(c *certmodel.CertInfo) {
	if d == nil {
		return
	}
	if d.e.icpt.Gen() != d.gen {
		d.dirty = true
	}
	if d.dirty {
		return
	}
	if d.missing[c.Fingerprint] {
		// An already-enriched connection resolved this fingerprint to
		// nil; the batch pipeline would have resolved it.
		d.dirty = true
		return
	}
	if !d.e.icpt.Excluded(c.Fingerprint) {
		d.b.AddCert(c)
	}
}

// connApplied enriches a just-retained connection when the derived state
// is clean and the connection survives the §3.2 filter.
func (d *derived) connApplied(rec *core.ConnRecord) {
	if d == nil {
		return
	}
	if d.e.icpt.Gen() != d.gen {
		d.dirty = true
	}
	if d.dirty {
		return
	}
	if sl := rec.ServerLeaf(); sl != "" && d.e.icpt.Excluded(sl) {
		return // filtered out, as interception.Filter drops it in batch
	}
	d.noteMissing(rec)
	d.b.AddConn(rec)
}

// noteMissing records leaf fingerprints this connection will fail to
// resolve, so their late arrival invalidates the enrichment.
func (d *derived) noteMissing(rec *core.ConnRecord) {
	if fp := rec.ServerLeaf(); fp != "" && d.e.roster[fp] == nil {
		d.missing[fp] = true
	}
	if fp := rec.ClientLeaf(); fp != "" && d.e.roster[fp] == nil {
		d.missing[fp] = true
	}
}

// rebuild reconstructs the derived state from the retained raw records
// under the current exclusion set — the same code path as incremental
// ingestion, replayed. On a tiered window this streams the cold records
// up from disk; the Builder's enriched views hold the decoded copies
// until the next reset.
func (d *derived) rebuild() {
	e := d.e
	defer e.m.rebuildDur.Since(time.Now())
	d.reset()
	for fp, c := range e.roster {
		if !e.icpt.Excluded(fp) {
			d.b.AddCert(c)
		}
	}
	e.st.Since(0, func(rec *core.ConnRecord, _ uint64) bool {
		if sl := rec.ServerLeaf(); sl != "" && e.icpt.Excluded(sl) {
			return true
		}
		d.noteMissing(rec)
		d.b.AddConn(rec)
		return true
	})
	d.rebuilds++
	e.m.rebuilds.Inc()
}

// pipeline materializes the current state as a core.Pipeline, rebuilding
// first if retroactive evidence arrived.
func (d *derived) pipeline() *core.Pipeline {
	if d.dirty {
		d.rebuild()
	}
	return d.b.Pipeline(d.e.preReportLocked())
}

// Package distrib makes the sharded engine's merge cross the network:
// a sensor (an mtlsd tailing one vantage point's logs) serializes its
// raw engine state — connections in global sequence order, the
// first-wins certificate roster, raw §3.2 detector evidence — and an
// aggregator follows N sensors, treats each as one shard, and rebuilds
// the global analysis with exactly the code path the in-process sharded
// engine uses (core.MergeShards + interception.Merge). Verdicts never
// travel: evidence split across sensors must corroborate at the merge
// point, which per-sensor verdicts would lose.
//
// The wire format is self-describing (a magic string, a schema-stamped
// header, length-prefixed frames) and speaks one schema, SchemaV2: an
// aggregator asks for it, and a body or a sensor under any other is a
// sync error, never a merge. It streams in bounded batches so a snapshot
// never has to fit one buffer, and supports cursor-based deltas: a
// snapshot carries the sensor's (epoch, NextSeq) cursor, and requesting
// since=<cursor> returns only records first observed at or after it.
// With follow=<ms> the response stays open and carries one snapshot after
// another — each the delta since the one before, written as the sensor
// ingests — so the aggregator holds one request per sensor instead of
// polling. A sensor restarted without its checkpoint renumbers under a
// fresh epoch and refuses old cursors as stale, which the aggregator
// answers with a full re-sync.
package distrib

import "repro/internal/stream"

// SchemaV2 is the snapshot schema: frame payloads in the record codec
// checkpoint segments carry (store/record.go). It replaced schema 1, whose
// payloads were JSON and which no build since the previous release speaks.
const SchemaV2 = 2

// SupportedSchemas lists the snapshot schemas this build serves and
// decodes — the set /api/v1/version reports.
func SupportedSchemas() []int { return []int{SchemaV2} }

// Snapshot is one decoded sensor state: a stream.ExportState as it
// crosses the wire. Full snapshots have Since 0; deltas carry the cursor
// they answer and only records at or after it. Evidence is the sensor's
// whole detector evidence on the first snapshot of a response, and only
// the pairs new since the snapshot before on each later one of a followed
// stream; Evidence.Pending is the sensor's parked count either way.
// NextPair is local to the sensor's engine and never travels: it is zero
// on a decoded Snapshot.
type Snapshot = stream.ExportState

// FromExport returns the wire form of an engine export: a copy with the
// engine-local NextPair cleared, so an export and the decoding of its
// encoding deep-equal.
func FromExport(st *stream.ExportState) *Snapshot {
	s := *st
	s.NextPair = 0
	return &s
}

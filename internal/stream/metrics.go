package stream

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// MergeObserver registers a merged view's series under prefix ("stream"
// for an engine, "distrib" for an aggregator) — <prefix>_merges_total
// and <prefix>_merge_seconds for every catch-up,
// <prefix>_merge_late_conns_total for the connections a late certificate
// made one re-enrich in place, <prefix>_merge_retracted_conns_total for
// those a grown §3.2 verdict made one take back, and
// <prefix>_merge_replays_total{reason} for the catch-ups that had to
// replay, all three reasons visible from boot — and returns the
// core.MergedView.OnMerge that feeds them.
func MergeObserver(reg *metrics.Registry, prefix string) func(time.Duration, core.ReplayReason, int, int) {
	merges := reg.Counter(prefix+"_merges_total", "merged-view catch-ups (what the sources appended, through one Builder)")
	dur := reg.Histogram(prefix+"_merge_seconds", "merged-view catch-up duration", nil)
	lateConns := reg.Counter(prefix+"_merge_late_conns_total", "connections re-enriched in place because their certificate arrived after them")
	retractedConns := reg.Counter(prefix+"_merge_retracted_conns_total", "merged connections taken back because the §3.2 verdict came to exclude their server certificate")
	replays := make(map[core.ReplayReason]*metrics.Counter, len(core.ReplayReasons))
	for _, why := range core.ReplayReasons {
		replays[why] = reg.Counter(prefix+"_merge_replays_total",
			"merged-view catch-ups that had to replay every source's whole state", "reason", string(why))
	}
	return func(d time.Duration, replay core.ReplayReason, late, retracted int) {
		merges.Inc()
		dur.Observe(d.Seconds())
		lateConns.Add(uint64(late))
		retractedConns.Add(uint64(retracted))
		replays[replay].Inc() // "" has no series: a nil counter, a no-op
	}
}

// engineMetrics is the engine's instrumentation, one unlabelled series
// each: what the router refuses and what it admits into the roster, the
// window's event flow, queue latency, eviction sweeps, occupancy and
// checkpoint chain, and what the engine does once per call — a read
// through the merged view, a checkpoint commit, a fold.
type engineMetrics struct {
	rejected      *metrics.Counter
	certsIngested *metrics.Counter
	connsIngested *metrics.Counter
	dropped       *metrics.Counter
	evicted       *metrics.Counter
	checkpoints   *metrics.Counter
	compactions   *metrics.Counter

	applyLatency   *metrics.Histogram // enqueue -> apply
	evictDur       *metrics.Histogram
	materializeDur *metrics.Histogram
	checkpointDur  *metrics.Histogram
	compactDur     *metrics.Histogram

	rosterSize      *metrics.Gauge
	retained        *metrics.Gauge
	checkpointBytes *metrics.Gauge
	checkpointSegs  *metrics.Gauge

	// onMerge feeds the view's series: every catch-up through
	// MergeObserver, and the replays among them once more under the two
	// rebuild names they have always had.
	onMerge func(time.Duration, core.ReplayReason, int, int)
}

// newEngineMetrics registers the engine's series. The occupancy gauges
// read channel length/capacity and the store's atomics through callbacks
// — safe without the window's lock.
func newEngineMetrics(r *metrics.Registry, w *window) *engineMetrics {
	merge := MergeObserver(r, "stream")
	rebuilds := r.Counter("stream_rebuilds_total", "merged-view replays (every source's whole state through a fresh Builder)")
	rebuildDur := r.Histogram("stream_rebuild_seconds", "merged-view replay duration", nil)
	m := &engineMetrics{
		rejected:      r.Counter("stream_events_rejected_total", "invalid events refused at the ingest boundary"),
		certsIngested: r.Counter("stream_certs_ingested_total", "certificate events admitted (incl. duplicates)"),
		connsIngested: r.Counter("stream_conns_ingested_total", "connection events applied"),
		dropped:       r.Counter("stream_events_dropped_total", "connection events shed under Policy Drop"),
		evicted:       r.Counter("stream_conns_evicted_total", "connections dropped by the retention window"),
		checkpoints:   r.Counter("stream_checkpoints_total", "checkpoints written"),
		compactions:   r.Counter("stream_checkpoint_compactions_total", "checkpoint segment compactions"),

		applyLatency:   r.Histogram("stream_apply_latency_seconds", "ingest enqueue to apply latency", nil),
		evictDur:       r.Histogram("stream_evict_seconds", "retention eviction sweep duration", nil),
		materializeDur: r.Histogram("stream_materialize_seconds", "report materialization duration (incl. any catch-up or replay)", nil),
		checkpointDur:  r.Histogram("stream_checkpoint_seconds", "checkpoint serialization+rename duration", nil),
		compactDur:     r.Histogram("stream_compact_seconds", "checkpoint compaction duration", nil),

		rosterSize:      r.Gauge("stream_store_hot_certs", "roster certificates (always resident)"),
		retained:        r.Gauge("stream_conns_retained", "connections currently in the window"),
		checkpointBytes: r.Gauge("stream_checkpoint_bytes", "bytes written by the last checkpoint (delta, not total state)"),
		checkpointSegs:  r.Gauge("stream_checkpoint_segments", "segments in the committed checkpoint manifest"),

		onMerge: func(d time.Duration, replay core.ReplayReason, late, retracted int) {
			merge(d, replay, late, retracted)
			if replay != "" {
				rebuilds.Inc()
				rebuildDur.Observe(d.Seconds())
			}
		},
	}
	r.GaugeFunc("stream_buffer_occupancy", "events waiting in the ingest buffer",
		func() float64 { return float64(len(w.ch)) })
	r.Gauge("stream_buffer_capacity", "ingest buffer capacity").Set(float64(cap(w.ch)))

	// Store tier occupancy: the callbacks read atomics the store
	// maintains. All-zero for the memory store except the hot connection
	// count.
	ts := w.st.Stats()
	r.GaugeFunc("stream_store_hot_conns", "retained connections in the hot (RAM) tier", func() float64 { return float64(ts.HotConns.Load()) })
	r.GaugeFunc("stream_store_cold_conns", "retained connections spilled to disk", func() float64 { return float64(ts.ColdConns.Load()) })
	r.GaugeFunc("stream_store_hot_bytes", "estimated bytes of hot-tier connections (what -hot-bytes bounds)", func() float64 { return float64(ts.HotBytes.Load()) })
	r.GaugeFunc("stream_store_spilled_total", "connections spilled to the cold tier", func() float64 { return float64(ts.Spills.Load()) })
	r.GaugeFunc("stream_store_loaded_total", "connections decoded back from the cold tier", func() float64 { return float64(ts.Loads.Load()) })
	return m
}

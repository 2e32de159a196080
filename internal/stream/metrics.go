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

// routerMetrics is the engine-level instrumentation: what the router
// refuses and what it admits into the roster, and what the engine does
// once for all its shards — a read through the merged view, a checkpoint
// commit, a fold.
type routerMetrics struct {
	rejected      *metrics.Counter
	certsIngested *metrics.Counter
	rosterSize    *metrics.Gauge

	materializeDur *metrics.Histogram
	checkpointDur  *metrics.Histogram
	compactDur     *metrics.Histogram

	// onMerge feeds the view's series: every catch-up through
	// MergeObserver, and the replays among them once more under the two
	// rebuild names they have always had.
	onMerge func(time.Duration, core.ReplayReason, int, int)
}

func newRouterMetrics(r *metrics.Registry, n int) *routerMetrics {
	r.Gauge("stream_shards", "engine shards").Set(float64(n))
	merge := MergeObserver(r, "stream")
	rebuilds := r.Counter("stream_rebuilds_total", "merged-view replays (every source's whole state through a fresh Builder)")
	rebuildDur := r.Histogram("stream_rebuild_seconds", "merged-view replay duration", nil)
	return &routerMetrics{
		rejected:      r.Counter("stream_events_rejected_total", "invalid events refused at the ingest boundary"),
		certsIngested: r.Counter("stream_certs_ingested_total", "certificate events admitted (incl. duplicates)"),
		rosterSize:    r.Gauge("stream_store_hot_certs", "roster certificates (always resident)"),

		materializeDur: r.Histogram("stream_materialize_seconds", "report materialization duration (incl. any catch-up or replay)", nil),
		checkpointDur:  r.Histogram("stream_checkpoint_seconds", "checkpoint serialization+rename duration", nil),
		compactDur:     r.Histogram("stream_compact_seconds", "checkpoint compaction duration", nil),

		onMerge: func(d time.Duration, replay core.ReplayReason, late, retracted int) {
			merge(d, replay, late, retracted)
			if replay != "" {
				rebuilds.Inc()
				rebuildDur.Observe(d.Seconds())
			}
		},
	}
}

// shardMetrics is one shard's instrumentation: counters for the event
// flow, histograms for queue latency and eviction sweeps, and gauges for
// current occupancy and the last checkpoint segment. cfg.metricLabels
// tags every series (shard="i") so one registry holds distinguishable
// per-shard series.
type shardMetrics struct {
	connsIngested *metrics.Counter
	dropped       *metrics.Counter
	evicted       *metrics.Counter
	checkpoints   *metrics.Counter
	compactions   *metrics.Counter

	applyLatency *metrics.Histogram // enqueue -> apply
	evictDur     *metrics.Histogram

	retained        *metrics.Gauge
	checkpointBytes *metrics.Gauge
	checkpointSegs  *metrics.Gauge
}

// newShardMetrics registers the shard's series. The occupancy gauges
// read channel length/capacity through callbacks — safe without the
// shard lock because channel len is internally synchronized.
func newShardMetrics(r *metrics.Registry, e *shard) *shardMetrics {
	lbl := e.cfg.metricLabels
	m := &shardMetrics{
		connsIngested: r.Counter("stream_conns_ingested_total", "connection events applied", lbl...),
		dropped:       r.Counter("stream_events_dropped_total", "connection events shed under Policy Drop", lbl...),
		evicted:       r.Counter("stream_conns_evicted_total", "connections dropped by the retention window", lbl...),
		checkpoints:   r.Counter("stream_checkpoints_total", "checkpoints written", lbl...),
		compactions:   r.Counter("stream_checkpoint_compactions_total", "checkpoint segment compactions", lbl...),

		applyLatency: r.Histogram("stream_apply_latency_seconds", "ingest enqueue to apply latency", nil, lbl...),
		evictDur:     r.Histogram("stream_evict_seconds", "retention eviction sweep duration", nil, lbl...),

		retained:        r.Gauge("stream_conns_retained", "connections currently in the window", lbl...),
		checkpointBytes: r.Gauge("stream_checkpoint_bytes", "bytes written by the last checkpoint (delta, not total state)", lbl...),
		checkpointSegs:  r.Gauge("stream_checkpoint_segments", "segments in the committed checkpoint manifest", lbl...),
	}
	r.GaugeFunc("stream_buffer_occupancy", "events waiting in the ingest buffer",
		func() float64 { return float64(len(e.ch)) }, lbl...)
	r.Gauge("stream_buffer_capacity", "ingest buffer capacity", lbl...).Set(float64(cap(e.ch)))

	// Store tier occupancy: the callbacks read atomics the store
	// maintains, so no shard lock is needed. All-zero for the memory
	// store except the hot connection count.
	ts := e.st.Stats()
	r.GaugeFunc("stream_store_hot_conns", "retained connections in the hot (RAM) tier", func() float64 { return float64(ts.HotConns.Load()) }, lbl...)
	r.GaugeFunc("stream_store_cold_conns", "retained connections spilled to disk", func() float64 { return float64(ts.ColdConns.Load()) }, lbl...)
	r.GaugeFunc("stream_store_hot_bytes", "estimated bytes of hot-tier connections (what -hot-bytes bounds)", func() float64 { return float64(ts.HotBytes.Load()) }, lbl...)
	r.GaugeFunc("stream_store_spilled_total", "connections spilled to the cold tier", func() float64 { return float64(ts.Spills.Load()) }, lbl...)
	r.GaugeFunc("stream_store_loaded_total", "connections decoded back from the cold tier", func() float64 { return float64(ts.Loads.Load()) }, lbl...)
	return m
}

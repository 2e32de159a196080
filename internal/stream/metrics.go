package stream

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// MergeObserver registers a merged view's series under prefix ("stream"
// for an engine, plain or sharded, "distrib" for an aggregator) — <prefix>_merges_total
// and <prefix>_merge_seconds for every catch-up, and
// <prefix>_merge_replays_total{reason} for those that had to replay, all
// five reasons visible from boot — and returns the core.MergedView.OnMerge
// that feeds them.
func MergeObserver(reg *metrics.Registry, prefix string) func(time.Duration, core.ReplayReason) {
	merges := reg.Counter(prefix+"_merges_total", "merged-view catch-ups (what the sources appended, through one Builder)")
	dur := reg.Histogram(prefix+"_merge_seconds", "merged-view catch-up duration", nil)
	replays := make(map[core.ReplayReason]*metrics.Counter, len(core.ReplayReasons))
	for _, why := range core.ReplayReasons {
		replays[why] = reg.Counter(prefix+"_merge_replays_total",
			"merged-view catch-ups that had to replay every source's whole state", "reason", string(why))
	}
	return func(d time.Duration, replay core.ReplayReason) {
		merges.Inc()
		dur.Observe(d.Seconds())
		replays[replay].Inc() // "" has no series: a nil counter, a no-op
	}
}

// engineMetrics is the engine's instrumentation: counters for the event
// flow, histograms for the costs that dominate a long-running monitor
// (queue latency, replay and materialization duration, eviction sweeps,
// checkpoint writes), and gauges for current occupancy. Registered into
// Config.Metrics; when the caller passes no registry a private one is
// created so every call site stays unconditional.
type engineMetrics struct {
	connsIngested *metrics.Counter
	certsIngested *metrics.Counter
	dropped       *metrics.Counter
	rejected      *metrics.Counter
	evicted       *metrics.Counter
	checkpoints   *metrics.Counter
	compactions   *metrics.Counter

	applyLatency   *metrics.Histogram // enqueue -> apply
	materializeDur *metrics.Histogram
	evictDur       *metrics.Histogram
	checkpointDur  *metrics.Histogram
	compactDur     *metrics.Histogram

	retained        *metrics.Gauge
	rosterSize      *metrics.Gauge
	checkpointBytes *metrics.Gauge
	checkpointSegs  *metrics.Gauge

	// onMerge feeds the view's series; nil on a routed shard, which has
	// no view.
	onMerge func(time.Duration, core.ReplayReason)
}

// newEngineMetrics registers the engine's series. The occupancy gauges
// read channel length/capacity through callbacks — safe without the
// engine lock because channel len is internally synchronized. When the
// engine is a shard, cfg.metricLabels tags every series (shard="i") so
// one registry holds distinguishable per-shard series.
func newEngineMetrics(r *metrics.Registry, e *Engine) *engineMetrics {
	if r == nil {
		r = metrics.New()
	}
	lbl := e.cfg.metricLabels
	m := &engineMetrics{
		connsIngested: r.Counter("stream_conns_ingested_total", "connection events applied", lbl...),
		certsIngested: r.Counter("stream_certs_ingested_total", "certificate events applied (incl. duplicates)", lbl...),
		dropped:       r.Counter("stream_events_dropped_total", "events shed under Policy Drop", lbl...),
		rejected:      r.Counter("stream_events_rejected_total", "invalid events refused at the ingest boundary", lbl...),
		evicted:       r.Counter("stream_conns_evicted_total", "connections dropped by the retention window", lbl...),
		checkpoints:   r.Counter("stream_checkpoints_total", "checkpoints written", lbl...),
		compactions:   r.Counter("stream_checkpoint_compactions_total", "checkpoint segment compactions", lbl...),

		applyLatency:   r.Histogram("stream_apply_latency_seconds", "ingest enqueue to apply latency", nil, lbl...),
		materializeDur: r.Histogram("stream_materialize_seconds", "report materialization duration (incl. any catch-up or replay)", nil, lbl...),
		evictDur:       r.Histogram("stream_evict_seconds", "retention eviction sweep duration", nil, lbl...),
		checkpointDur:  r.Histogram("stream_checkpoint_seconds", "checkpoint serialization+rename duration", nil, lbl...),
		compactDur:     r.Histogram("stream_compact_seconds", "checkpoint compaction duration", nil, lbl...),

		retained:        r.Gauge("stream_conns_retained", "connections currently in the window", lbl...),
		rosterSize:      r.Gauge("stream_store_hot_certs", "roster certificates (always resident)", lbl...),
		checkpointBytes: r.Gauge("stream_checkpoint_bytes", "bytes written by the last checkpoint (delta, not total state)", lbl...),
		checkpointSegs:  r.Gauge("stream_checkpoint_segments", "segments in the committed checkpoint manifest", lbl...),
	}
	// The two rebuild series are the replays among the view's catch-ups
	// under the names they have always had; a routed shard never replays
	// and exposes them at zero.
	rebuilds := r.Counter("stream_rebuilds_total", "merged-view replays (retroactive evidence)", lbl...)
	rebuildDur := r.Histogram("stream_rebuild_seconds", "merged-view replay duration", nil, lbl...)
	if !e.cfg.routed {
		merge := MergeObserver(r, "stream")
		m.onMerge = func(d time.Duration, replay core.ReplayReason) {
			merge(d, replay)
			if replay != "" {
				rebuilds.Inc()
				rebuildDur.Observe(d.Seconds())
			}
		}
	}
	r.GaugeFunc("stream_buffer_occupancy", "events waiting in the ingest buffer",
		func() float64 { return float64(len(e.ch)) }, lbl...)
	r.Gauge("stream_buffer_capacity", "ingest buffer capacity", lbl...).Set(float64(cap(e.ch)))

	// Store tier occupancy: the callbacks read atomics the store
	// maintains, so no engine lock is needed. All-zero for the memory
	// store except the hot connection count.
	ts := e.st.Stats()
	r.GaugeFunc("stream_store_hot_conns", "retained connections in the hot (RAM) tier", func() float64 { return float64(ts.HotConns.Load()) }, lbl...)
	r.GaugeFunc("stream_store_cold_conns", "retained connections spilled to disk", func() float64 { return float64(ts.ColdConns.Load()) }, lbl...)
	r.GaugeFunc("stream_store_hot_bytes", "estimated bytes of hot-tier connections (what -hot-bytes bounds)", func() float64 { return float64(ts.HotBytes.Load()) }, lbl...)
	r.GaugeFunc("stream_store_spilled_total", "connections spilled to the cold tier", func() float64 { return float64(ts.Spills.Load()) }, lbl...)
	r.GaugeFunc("stream_store_loaded_total", "connections decoded back from the cold tier", func() float64 { return float64(ts.Loads.Load()) }, lbl...)
	return m
}

package main

import "repro/internal/stream"

// metricDef is one named metric. The catalogue is the single list of
// names and units: the driver-mode output, the results file, -compare
// and BENCHMARK.json (pinned to it by a test) all read from it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the figures an operator of the system sees. Every
// workload runs the whole lifecycle, so each has a value on each.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_mrow", Unit: "s/Mrow", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer figures, prefixed with the package that
// owns the cost. The first group comes from the in-process traced walk,
// the second is scraped from the running daemons, the third is the cold
// sweep broken down by report. Which end-to-end metric each should move,
// on which workload, is written down in README.md.
var perLayer = append([]metricDef{
	// Traced walk.
	{Name: "workload.generate_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "zeek.render_ssl_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "zeek.render_x509_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "zeek.parse_ssl_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "zeek.parse_x509_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "zeek.parse_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "zeek.tail_poll_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "stream.ingest_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "stream.ingest_allocs_per_event", Unit: "allocs/event", Better: "lower"},
	{Name: "stream.ingest_sharded_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "stream.route_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "store.disk_ingest_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "store.disk_spilled_records", Unit: "count", Better: "lower"},
	{Name: "store.disk_loaded_records", Unit: "count", Better: "lower"},
	{Name: "store.disk_load_per_spill", Unit: "ratio", Better: "lower"},
	{Name: "stream.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.report_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.report_slowest_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merge_shards_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.checkpoint_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.checkpoint_delta_bytes", Unit: "bytes", Better: "lower"},
	{Name: "stream.checkpoint_full_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.export_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.snapshot_bytes_per_event", Unit: "bytes/event", Better: "lower"},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_serial_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},
	{Name: "mtlsd.json_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "mtlsreport.batch_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.self_sum_share", Unit: "share", Better: "higher"},

	// Scraped from the running daemons.
	{Name: "probe.freshness_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.freshness_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.freshness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.freshness_max_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.samples", Unit: "count", Better: "higher"},
	{Name: "probe.responses", Unit: "count", Better: "higher"},
	{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.achieved_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "gen.rows", Unit: "count", Better: "higher"},
	{Name: "reader.report_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "reader.fetches", Unit: "count", Better: "higher"},
	{Name: "mtlsd.startup_ms", Unit: "ms", Better: "lower"},
	{Name: "mtlsd.catchup_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "mtlsd.restart_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "mtlsd.rss_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "mtlsd.cpu_util_share", Unit: "share", Better: "lower"},
	{Name: "mtlsd.cpu_total_s", Unit: "s", Better: "lower"},
	{Name: "mtlsd.tailer_cpu_s", Unit: "s", Better: "lower"},
	{Name: "mtlsd.aggregator_cpu_s", Unit: "s", Better: "lower"},
	{Name: "mtlsd.http_reports_busy_s", Unit: "s", Better: "lower"},
	{Name: "zeek.tail_poll_busy_s", Unit: "s", Better: "lower"},
	{Name: "zeek.tail_polls", Unit: "count", Better: "lower"},
	{Name: "zeek.tail_rows", Unit: "count", Better: "higher"},
	{Name: "zeek.tail_lag_max_bytes", Unit: "bytes", Better: "lower"},
	{Name: "stream.queue_wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "stream.rebuilds", Unit: "count", Better: "lower"},
	{Name: "stream.rebuild_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.rebuild_per_materialize", Unit: "ratio", Better: "lower"},
	{Name: "stream.materialize_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.merges", Unit: "count", Better: "lower"},
	{Name: "stream.merge_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.checkpoints", Unit: "count", Better: "higher"},
	{Name: "stream.checkpoint_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "stream.compactions", Unit: "count", Better: "lower"},
	{Name: "stream.compact_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.spilled_total", Unit: "count", Better: "lower"},
	{Name: "store.loaded_total", Unit: "count", Better: "lower"},
	{Name: "store.hot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "distrib.syncs", Unit: "count", Better: "higher"},
	{Name: "distrib.sync_bytes", Unit: "bytes", Better: "lower"},
	{Name: "distrib.full_resyncs", Unit: "count", Better: "lower"},
	{Name: "distrib.merges", Unit: "count", Better: "lower"},
	{Name: "distrib.merge_busy_s", Unit: "s", Better: "lower"},
	{Name: "distrib.sync_age_max_s", Unit: "s", Better: "lower"},
	{Name: "sweep.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.warm_sweeps", Unit: "count", Better: "higher"},
}, sweepMetrics()...)

// sweepMetrics is the cold sweep by report: which of the 23 a read-side
// change made cheaper.
func sweepMetrics() []metricDef {
	var out []metricDef
	for _, name := range stream.ReportNames() {
		out = append(out, metricDef{Name: "sweep." + name + "_ms", Unit: "ms", Better: "lower"})
	}
	return out
}

package main

import (
	"net/http"
	"strconv"
	"strings"
)

// promSum parses a Prometheus text exposition and returns, per metric
// name, the sum of its samples over all label sets; keep (when non-nil)
// filters samples by their raw label block, e.g. `path="/api/v1/stats"`.
// Histogram buckets are skipped — the harness reads _sum and _count.
func promSum(text string, keep func(name, labels string) bool) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.Trim(name[i:], "{}")
		}
		if strings.HasSuffix(name, "_bucket") || (keep != nil && !keep(name, labels)) {
			continue
		}
		out[name] += v
	}
	return out
}

// scrape reads every daemon's /metrics once, after the sweeps and before
// the restart (counters reset with the process), and turns the series
// into the per-layer metrics that only the daemon can count. Sums run
// over all daemons of the deployment and over shard labels.
func (lr *liveRun) scrape() {
	sum := make(map[string]float64)
	reports := make(map[string]float64)
	for _, d := range lr.all() {
		code, body, err := get(lr.probe, d.Base+"/metrics")
		lr.res.Attempted++
		if err != nil || code != http.StatusOK {
			lr.res.failf("scrape %s: status %d, %v", d.Name, code, err)
			continue
		}
		for k, v := range promSum(string(body), nil) {
			sum[k] += v
		}
		for k, v := range promSum(string(body), func(name, labels string) bool {
			return strings.Contains(labels, `path="/api/v1/reports/"`)
		}) {
			reports[k] += v
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	l := lr.res.Layer
	l["mtlsd.http_reports_busy_s"] = reports["mtlsd_http_request_seconds_sum"]
	l["zeek.tail_poll_busy_s"] = sum["tail_poll_seconds_sum"]
	l["zeek.tail_polls"] = sum["tail_poll_seconds_count"]
	l["zeek.tail_rows"] = sum["tail_rows_total"]
	l["stream.queue_wait_mean_us"] = 1e6 * ratio(sum["stream_apply_latency_seconds_sum"], sum["stream_apply_latency_seconds_count"])
	l["stream.rebuilds"] = sum["stream_rebuilds_total"]
	l["stream.rebuild_busy_s"] = sum["stream_rebuild_seconds_sum"]
	l["stream.rebuild_per_materialize"] = ratio(sum["stream_rebuilds_total"], sum["stream_materialize_seconds_count"])
	l["stream.materialize_busy_s"] = sum["stream_materialize_seconds_sum"]
	l["stream.merges"] = sum["stream_merges_total"]
	l["stream.merge_busy_s"] = sum["stream_merge_seconds_sum"]
	l["stream.checkpoints"] = sum["stream_checkpoints_total"]
	l["stream.checkpoint_busy_s"] = sum["stream_checkpoint_seconds_sum"]
	l["stream.checkpoint_bytes"] = sum["stream_checkpoint_bytes"]
	l["stream.compactions"] = sum["stream_checkpoint_compactions_total"]
	l["stream.compact_busy_s"] = sum["stream_compact_seconds_sum"]
	l["store.spilled_total"] = sum["stream_store_spilled_total"]
	l["store.loaded_total"] = sum["stream_store_loaded_total"]
	l["store.hot_bytes"] = sum["stream_store_hot_bytes"]
	l["distrib.syncs"] = sum["distrib_syncs_total"]
	l["distrib.sync_bytes"] = sum["distrib_sync_bytes_total"]
	l["distrib.full_resyncs"] = sum["distrib_full_resyncs_total"]
	l["distrib.merges"] = sum["distrib_merges_total"]
	l["distrib.merge_busy_s"] = sum["distrib_merge_seconds_sum"]
	l["distrib.sync_age_max_s"] = sum["distrib_sensor_last_sync_age_seconds"] // summed over sensors; an age, so small is healthy
}

package main

import "testing"

func TestPromSum(t *testing.T) {
	text := `# HELP tail_rows_total rows
# TYPE tail_rows_total counter
tail_rows_total{file="ssl"} 100
tail_rows_total{file="x509"} 40
stream_rebuild_seconds_bucket{le="0.1"} 7
stream_rebuild_seconds_sum 1.5
stream_rebuild_seconds_count 3
mtlsd_http_request_seconds_sum{path="/api/v1/reports/"} 0.25
mtlsd_http_request_seconds_sum{path="/api/v1/stats"} 9
garbage line without a number
`
	all := promSum(text, nil)
	if all["tail_rows_total"] != 140 || all["stream_rebuild_seconds_sum"] != 1.5 || all["stream_rebuild_seconds_count"] != 3 {
		t.Errorf("sums wrong: %v", all)
	}
	if _, ok := all["stream_rebuild_seconds_bucket"]; ok {
		t.Error("histogram buckets were summed")
	}
	rep := promSum(text, func(name, labels string) bool { return labels == `path="/api/v1/reports/"` })
	if len(rep) != 1 || rep["mtlsd_http_request_seconds_sum"] != 0.25 {
		t.Errorf("label filter wrong: %v", rep)
	}
}

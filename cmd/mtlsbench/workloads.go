package main

import (
	"runtime"
	"time"
)

// workload is one traffic mix and deployment the benchmark drives. Every
// workload runs the same lifecycle — start on a backlog, tail a live
// window, serve all reports, restart — so every end-to-end metric has a
// value on every workload; what differs is where the cost lands.
type workload struct {
	Name string
	Why  string
	// Fleet selects workloads/fleet.spec.yaml instead of the built-in
	// campus spec.
	Fleet bool
	// Scale is the generator's scale divisor (larger = smaller dataset).
	Scale int
	// Rate is connection rows appended per second in the live window;
	// first-use certificate rows come on top. Whatever the live window
	// does not consume is the backlog the daemon starts on.
	Rate float64
	// Shards is mtlsd -shards; shardsPerCPU resolves to max(2, nproc).
	Shards   int
	Store    string // "" = memory
	HotBytes int64
	// ReaderHz is the rate of the report reader during the live window:
	// one report per tick, round-robin over all 23 (0 = no reader).
	ReaderHz float64
	// Withhold is the share of live first-use certificates that arrive
	// one second after the connections that reference them.
	Withhold float64
	// Sensors > 0 runs that many sensors behind one aggregator; probes
	// and reads go to the aggregator.
	Sensors int
	// ProbeGap is the prober's sleep between stats responses.
	ProbeGap time.Duration
}

const shardsPerCPU = -1

// resolveShards turns shardsPerCPU into a count. On a one-CPU host it
// still runs two shards: the router, the per-shard checkpoints and the
// merged view are exercised, only the scaling claim is void (and the
// results file says so).
func resolveShards(n int) int {
	if n == shardsPerCPU {
		return max(2, runtime.NumCPU())
	}
	return n
}

// workloads is the benchmark's fixed set. Rates are fixed; only the
// window length (--seconds) scales.
var workloads = []workload{
	{
		Name: "steady", Scale: 150, Rate: 10000, Shards: 1, ProbeGap: 2 * time.Millisecond,
		Why: "write-only baseline at 10k conn rows/s, no readers: tail, parse, apply, delta checkpoint; read-side changes must not move it",
	},
	{
		Name: "dashboard", Scale: 300, Rate: 5000, Shards: 1, ProbeGap: 2 * time.Millisecond,
		ReaderHz: 4, Withhold: 0.02,
		Why: "5k conn rows/s beside a 4 Hz report reader and 2% late certificates: report scans hold the engine lock, late evidence forces rebuilds",
	},
	{
		Name: "backfill", Scale: 200, Rate: 2500, Shards: 1, ProbeGap: 2 * time.Millisecond,
		Why: "logs mostly written before the daemon starts: saturated catch-up rate including start-up, then a light tail on a large state",
	},
	{
		Name: "backfill-sharded", Scale: 200, Rate: 2500, Shards: shardsPerCPU, ProbeGap: 2 * time.Millisecond,
		Why: "the backfill input at -shards nproc: router, per-shard checkpoints and the merged view; read against backfill it shows whether sharding pays",
	},
	{
		Name: "spill", Scale: 2000, Rate: 250, Shards: 1, ProbeGap: 2 * time.Millisecond,
		Store: "disk", HotBytes: 1 << 20,
		Why: "disk store under a 1 MiB hot budget: store-bound catch-up and a rebuild per report; parse and apply gains should not move it",
	},
	{
		Name: "fleet", Fleet: true, Scale: 100, Rate: 4000, Shards: 2, Sensors: 2, ProbeGap: 20 * time.Millisecond,
		ReaderHz: 2,
		Why:      "two sharded sensors behind an aggregator on a three-cohort fingerprinted spec: export, snapshot codec, sync and merge replay on every read",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

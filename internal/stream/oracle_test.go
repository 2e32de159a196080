package stream_test

import (
	"testing"

	"repro/internal/oracle"
)

// The stream ≡ batch, resume, eviction, compaction, crash and disk ≡
// memory equalities are programs of the equivalence oracle
// (internal/oracle), which drives an engine through the public API and
// holds every step's Stats and the drained engine's Analysis and 23
// reports to the batch pipeline. Each test below is one program.

// Draining a finite dataset through the engine equals batch.
func TestStreamMatchesBatch(t *testing.T) { oracle.Test(t, "seed=1 scale=8000 order=perm:13 ops=end") }

// Materialization fans the reports out across workers (one per CPU).
func TestStreamMatchesBatchParallelMaterialize(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=perm:6 ops=read@500,end")
}

// Every connection before any certificate: the detector parks every
// observation and the late certificates complete the view in place.
func TestStreamOutOfOrderCerts(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=conns-first ops=read@500,end")
}

// A mid-stream read is the model's prefix analysis, and the stream still
// converges to batch.
func TestMidStreamMaterialization(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=read@250,read@500,read@750,end")
}

// Killed mid-stream, restored, the remainder re-read: batch.
func TestCheckpointRestoreResume(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=ck@400,kill@700,restore:certs-first,end")
}

// A short retention evicts, reads stay materializable, and the counters
// keep the full history (Stats.Evicted, Retained against the window).
func TestWindowedEviction(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ret=7 ops=read@300,read@600,end")
}

// One record at a time and in 512-record batches.
func TestIngestSurfacesMatchBatchPipeline(t *testing.T) {
	t.Run("one", func(t *testing.T) { oracle.Test(t, "seed=1 scale=8000 batch=1 order=chunk:3:5 ops=end") })
	t.Run("batch", func(t *testing.T) { oracle.Test(t, "seed=1 scale=8000 batch=512 ops=end") })
}

func TestBatchOutOfOrderCerts(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 order=conns-first ops=end")
}

// The §3.2 verdict from evidence spread across batches.
func TestBatchRetroactiveExclusion(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 order=chunk:256:256 ops=end")
}

// The three-cohort spec: fingerprint columns, shared device certificates
// and the middlebox's interception.
func TestStreamMatchesBatchSpec(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 spec=cohorts ops=end")
}

func TestStreamSpecParallelMaterialize(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 spec=cohorts order=perm:7 ops=read@500,end")
}

// Delta commits into one directory, a kill after intervals, restores.
func TestIncrementalCheckpointResume(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=ck@200,ck@400,ck@600,kill@700,restore,ck@800,kill@900,restore,end")
}

// Delta commits across evictions: each segment's cutoff replays.
func TestIncrementalCheckpointWithEviction(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ret=7 ops=ck@250,ck@500,ck@750,kill,restore,end")
}

// A folded chain restores to the chain's state.
func TestCheckpointCompaction(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=ck@200,ck@400,ck@600,compact,kill,restore,end")
}

// A failure at the manifest rename restores the previous commit.
func TestCheckpointCrashMidDelta(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=ck@300,crash:rename@600,restore,ck@800,end")
}

// A compaction that fails at its rename leaves the old chain
// authoritative, and a retried compaction succeeds.
func TestCheckpointCrashMidCompaction(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 ops=ck@300,crash:rename:compact@600,restore,compact,kill,restore,end")
}

// The disk store under a hot budget far below the dataset.
func TestDiskStoreMatchesMemory(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 store=disk ops=read@500,end")
}

// Checkpointed while every connection is parked: the restore parks as
// many (Stats.PendingCerts), and the certificates after it drain them.
func TestRestoreWakesParkedObservations(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=conns-first ops=ck@500,kill,restore:conns-first,end")
}

// A sensor's delta export continues its cursor across a restore.
func TestExportCheckpointResume(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=2 ops=sync@300,ck@400,kill@500,restore,sync@700,end")
}

// Stats' §3.2 numbers against one stream fed the same events, across a
// random interleaving and a kill and restore with some observations
// parked.
func TestShardedStatsUnionMatchesRebuild(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=256 order=perm:8 ops=read@200,ck@500,kill,restore:perm:9,read@800,end")
}

// The names below are the shard era's; an engine has one window.

func TestShardedMatchesSingleAndBatch(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 ops=end")
}

func TestShardedOutOfOrderCerts(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=256 order=conns-first ops=end")
}

// Some leaves before their connections, some after: both detector paths.
func TestShardedInterleaved(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=128 order=chunk:64:256 ops=end")
}

func TestShardedRetroactiveExclusion(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 order=perm:4 ops=read@500,end")
}

func TestShardedMidStream(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 ops=read@300,read@600,end")
}

func TestShardedCheckpointRestoreResume(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 ops=ck@500,kill@600,restore:certs-first,end")
}

// A second commit supersedes the first: the restore reads the second
// cursor.
func TestShardedCheckpointGenerations(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 ops=ck@300,ck@600,kill,restore,end")
}

// A kill between the segment write and the manifest rename restores the
// committed generation, resumes, and commits again.
func TestShardedCrashMidCheckpoint(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 ops=ck@300,crash:create@600,restore,ck@800,end")
}

// Every one of the 23 reports, fed in batches.
func TestShardedReportRegistry(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 batch=512 order=perm:5 ops=end")
}

// A full export replayed at an aggregator reproduces the engine.
func TestExportFullReplay(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=perm:11 ops=end")
}

// A full snapshot plus a delta from its cursor, all connections before
// any certificate: together they replay to batch.
func TestExportDelta(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=conns-first ops=sync@500,end")
}

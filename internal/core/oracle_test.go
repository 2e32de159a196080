package core_test

import (
	"testing"

	"repro/internal/oracle"
)

// MergeShards is the oracle's model of an engine and of an aggregator
// (internal/oracle): every program holds what it merges to the engines
// and the aggregator, and those to the batch pipeline, so a merge of one
// source or of sources interleaved by sequence reproduces batch.

func TestMergeShardsSingleShard(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 order=perm:12 ops=read@300,read@700,end")
}

func TestMergeShardsInterleaved(t *testing.T) {
	oracle.Test(t, "seed=1 scale=8000 sensors=3 split=rr ops=sync@300,sync@700,end")
}

package stream

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// genSpecBuild compiles a three-cohort scenario spec — IoT fleet,
// interception middlebox, rotation grid — at the given scale.
func genSpecBuild(t *testing.T, scale int) *workload.Build {
	t.Helper()
	spec, err := scenario.NewBuilder().
		Seed(7).
		AggregateRate(2_000_000).
		Cohort("fleet", "iot-shared-cert", 0.5,
			scenario.Arrival("constant"), scenario.Lifecycle("diurnal")).
		Cohort("acme", "enterprise-middlebox", 0.3,
			scenario.Lifecycle("spike"), scenario.Window(2, 12)).
		Cohort("grid", "rotation-wave", 0.2,
			scenario.Arrival("bursty"), scenario.Lifecycle("drain"),
			scenario.Fingerprint("chrome")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Default()
	cfg.CertScale = scale
	b, err := workload.FromSpec(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesBatchSpec extends the stream-equals-batch contract
// to spec-compiled cohorts: fingerprint columns, shared device certs,
// and the middlebox interception pattern must all survive incremental
// ingestion and drain to the same Analysis the batch pipeline computes.
func TestStreamMatchesBatchSpec(t *testing.T) {
	for _, scale := range []int{2000, 1200} {
		b := genSpecBuild(t, scale)
		batch := core.Run(inputFromBuild(b))

		in := inputFromBuild(b)
		in.Raw = nil
		e := newEngine(t, in, nil)
		feed(t, e, b)
		e.Drain()
		got := e.Analysis()

		if !reflect.DeepEqual(batch, got) {
			t.Errorf("scale=%d: spec-compiled stream analysis differs from batch", scale)
		}
		if batch.Fingerprints == nil || len(batch.Fingerprints.Rows) == 0 {
			t.Errorf("scale=%d: spec-compiled batch analysis has no fingerprint rows", scale)
		}
		if st := e.Stats(); st.Dropped != 0 {
			t.Errorf("scale=%d: unexpected drops: %d", scale, st.Dropped)
		}
	}
}

// TestStreamSpecParallelMaterialize: the same contract with parallel
// materialization workers.
func TestStreamSpecParallelMaterialize(t *testing.T) {
	b := genSpecBuild(t, 2000)
	batch := core.Run(inputFromBuild(b))

	in := inputFromBuild(b)
	in.Raw = nil
	in.Workers = 4
	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()
	if got := e.Analysis(); !reflect.DeepEqual(batch, got) {
		t.Error("parallel spec-compiled materialization differs from batch")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	mtls "repro"
	"repro/internal/stream"
)

// oracle is the expected content of every report for one input: an
// offline stream.Engine fed the identical rows, whose full analysis must
// itself equal the batch pipeline's (mtls.Analyze) over the same build.
// Daemon == offline engine == batch closes the loop from "the daemon
// answered" to "the daemon computed the paper".
type oracle struct {
	reports  map[string]any // JSON round-tripped, so map order and number types cannot differ
	rawConns float64
}

func buildOracle(in *input) (*oracle, error) {
	ctx := mtls.InputFromBuild(in.Build)
	ctx.Raw = nil
	eng, err := stream.New(stream.Config{Input: ctx})
	if err != nil {
		return nil, fmt.Errorf("oracle engine: %w", err)
	}
	defer eng.Close()
	eng.IngestCertBatch(in.Plan.Roster)
	eng.IngestConnBatch(in.Build.Raw.Conns)
	eng.Drain()

	streamJSON, err := json.Marshal(eng.Analysis())
	if err != nil {
		return nil, fmt.Errorf("marshal oracle analysis: %w", err)
	}
	batchJSON, err := json.Marshal(mtls.Analyze(in.Build))
	if err != nil {
		return nil, fmt.Errorf("marshal batch analysis: %w", err)
	}
	if !bytes.Equal(streamJSON, batchJSON) {
		return nil, fmt.Errorf("offline engine diverges from mtls.Analyze: the planned rows are not the build")
	}

	// The full analysis holds the 23 reports as its 23 fields; reading
	// them out of it costs one parallel RunAll instead of 23 serial scans.
	var fields map[string]any
	if err := json.Unmarshal(streamJSON, &fields); err != nil {
		return nil, fmt.Errorf("decode oracle analysis: %w", err)
	}
	o := &oracle{reports: make(map[string]any), rawConns: float64(len(in.Build.Raw.Conns))}
	for _, name := range stream.ReportNames() {
		v, ok := fields[analysisField[name]]
		if !ok {
			return nil, fmt.Errorf("report %s has no field in core.Analysis (analysisField is stale)", name)
		}
		o.reports[name] = v
	}
	return o, nil
}

// analysisField maps a daemon report name to the core.Analysis field
// that holds the same report. A wrong or missing entry cannot pass
// silently: the daemon's body would not equal the field's content.
var analysisField = map[string]string{
	"preprocess": "Preprocess", "table1": "CertStats", "figure1": "Prevalence", "table2": "Services",
	"table3": "Inbound", "figure2": "Outbound", "table4": "DummyIssuers", "serials": "Serials",
	"table5": "SharingSame", "table6": "SharingCross", "figure3": "BadDates", "figure4": "Validity",
	"figure5": "Expired", "table7": "Utilization", "table8": "Contents", "table9": "Unidentified",
	"table13": "SharedInfo", "table14": "NonMutual", "concerns": "Concerns", "santypes": "SANTypes",
	"durations": "Durations", "versions": "Versions", "fingerprints": "Fingerprints",
}

// check compares one sweep's bodies with the oracle; every report is an
// operation already counted by the sweep, so mismatches only add
// failures. It also ties the stats probe to what a report shows: the
// preprocess report's RawConns must be the number of rows written.
func (o *oracle) check(res *runResult, what string, bodies map[string][]byte) {
	for name, want := range o.reports {
		body, ok := bodies[name]
		if !ok {
			continue // the fetch failure is already recorded
		}
		var got any
		if err := json.Unmarshal(body, &got); err != nil {
			res.failf("%s sweep: report %s is not JSON: %v", what, name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			res.failf("%s sweep: report %s differs from the batch oracle", what, name)
		}
		if name == "preprocess" {
			if m, _ := got.(map[string]any); m["RawConns"] != o.rawConns {
				res.failf("%s sweep: preprocess.RawConns = %v, %v connection rows were written", what, m["RawConns"], o.rawConns)
			}
		}
	}
}

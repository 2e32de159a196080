package mtls_test

import (
	"fmt"

	mtls "repro"
	"repro/internal/stats"
)

// Example_pipeline shows the three-call flow: generate the synthetic
// campus dataset, run the paper's analyses, read a result.
func Example_pipeline() {
	build, err := mtls.Generate(nil, mtls.WithScale(4000)) // tiny, for a fast example
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	analysis := mtls.Analyze(build)

	first := analysis.Prevalence.FirstShare()
	last := analysis.Prevalence.LastShare()
	fmt.Printf("mTLS share rises: %v\n", last > first)
	fmt.Printf("months observed: %d\n", len(analysis.Prevalence.Overall))
	// Output:
	// mTLS share rises: true
	// months observed: 23
}

// Example_logs shows the Zeek-style log round trip.
func Example_logs() {
	build, err := mtls.Generate(nil, mtls.WithScale(4000))
	if err != nil {
		fmt.Println("generate:", err)
		return
	}

	dir := "/tmp/mtls-example-logs"
	if err := mtls.WriteLogs(build.Raw, dir); err != nil {
		fmt.Println("write:", err)
		return
	}
	ds, err := mtls.OpenLogs(dir)
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	fmt.Printf("round trip preserved connections: %v\n", len(ds.Conns) == len(build.Raw.Conns))
	// Output:
	// round trip preserved connections: true
}

// Example_table1 prints a reproduced table row the way cmd/mtlsreport
// does.
func Example_table1() {
	build, err := mtls.Generate(nil, mtls.WithScale(4000))
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	a := mtls.Analyze(build)
	row := a.CertStats.Row("Client")
	fmt.Printf("client certs are overwhelmingly mTLS: %v\n", row.MutualShare() > 0.9)
	_ = stats.Pct(row.MutualShare())
	// Output:
	// client certs are overwhelmingly mTLS: true
}

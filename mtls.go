// Package mtls is the public facade of the reproduction of "Mutual TLS in
// Practice: A Deep Dive into Certificate Configurations and Privacy
// Issues" (IMC 2024).
//
// The typical flow is three calls:
//
//	build, _ := mtls.Generate(mtls.CampusSpec()) // synthesize the campus dataset
//	analysis := mtls.Analyze(build)              // run the paper's pipeline
//	fmt.Print(mtls.Render(analysis))             // print every table/figure
//
// Generate compiles a declarative scenario spec (internal/scenario) into a
// 23-month synthetic border-traffic dataset calibrated to the paper's
// published numbers (internal/workload); Analyze runs preprocessing
// (CT-based interception filtering) and all analyses (internal/core);
// Render and Experiments format the results. Datasets can also round-trip
// through Zeek-style TSV logs with WriteLogs/OpenLogs, and live TLS
// traffic can be ingested with the zeek.Analyzer (see
// examples/livecapture).
package mtls

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workload"
	"repro/internal/zeek"
)

// OpenQuarantine opens (appending) a quarantine file for rejected rows.
func OpenQuarantine(path string) (*zeek.Quarantine, error) {
	return zeek.OpenQuarantine(path)
}

// RejectTotals reads back the rejection counters a permissive load
// published into reg: the grand total and a "file/reason" breakdown.
func RejectTotals(reg *metrics.Registry) (uint64, map[string]uint64) {
	return zeek.RejectTotals(reg)
}

// Build re-exports the generated dataset bundle.
type Build = workload.Build

// Analysis re-exports the full result set.
type Analysis = core.Analysis

// Spec re-exports the declarative scenario workload spec: cohorts with
// rate fractions, arrival models, lifecycles, and certificate-practice
// profiles. Build one with ParseSpec / CampusSpec / scenario.NewBuilder.
type Spec = scenario.Spec

// CampusSpec returns the built-in campus scenario: the paper-calibrated
// population as one baseline cohort.
func CampusSpec() *Spec { return scenario.Campus() }

// ParseSpec parses a scenario spec from its YAML form.
func ParseSpec(data []byte) (*Spec, error) { return scenario.Parse(data) }

// LoadSpec reads a scenario spec from a YAML file; path "-" reads stdin.
func LoadSpec(path string) (*Spec, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// GenerateOption tunes Generate without widening the spec schema: scale
// and seed are properties of one run, not of the scenario.
type GenerateOption func(*workload.Config)

// WithScale sets the certificate scale divisor (≤ 0 keeps the default).
func WithScale(scale int) GenerateOption {
	return func(c *workload.Config) { c.CertScale = scale }
}

// WithSeed overrides the seed, beating any seed in the spec (0 keeps the
// spec's).
func WithSeed(seed uint64) GenerateOption {
	return func(c *workload.Config) { c.Seed = seed }
}

// Generate compiles a scenario spec into the synthetic dataset; it is the
// only way to make one. nil means CampusSpec(). The seed is WithSeed's,
// else the spec's, else the campus spec's; the scale is WithScale's,
// else the calibrated default.
func Generate(spec *Spec, opts ...GenerateOption) (*Build, error) {
	var cfg workload.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return workload.FromSpec(spec, cfg)
}

// Analyze runs the paper's full pipeline on a build. By default the
// analyses fan out across one worker per CPU; WithWorkers pins the
// count. The Analysis is identical at every worker count.
func Analyze(b *Build, opts ...AnalyzeOption) *Analysis {
	var cfg analyzeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	in := InputFromBuild(b)
	in.Workers = cfg.workers
	return core.Run(in)
}

// InputFromBuild adapts a generated build into the core pipeline's input.
func InputFromBuild(b *Build) *core.Input {
	return &core.Input{
		Raw:           b.Raw,
		CT:            b.CT,
		Bundle:        b.Bundle,
		CampusIssuers: b.CampusIssuers,
		Assoc: core.AssocMap{
			HealthSLDs:     b.Assoc.HealthSLDs,
			UniversitySLDs: b.Assoc.UniversitySLDs,
			VPNHostPrefix:  b.Assoc.VPNHostPrefix,
			LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
			ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
			GlobusSLDs:     b.Assoc.GlobusSLDs,
		},
		Plan: b.Plan,
	}
}

// Render formats every reproduced table and figure as text.
func Render(a *Analysis) string { return report.RenderAll(a) }

// Experiments renders the paper-vs-measured EXPERIMENTS.md content.
func Experiments(a *Analysis, scaleNote string) string {
	return report.ExperimentsMarkdown(a, scaleNote)
}

// WriteLogs persists a dataset as Zeek-style ssl.log and x509.log files
// in dir (created if needed). Each log is written to a temp file —
// fsynced before the rename, with the directory fsynced after, via
// internal/atomicfile — so neither a crashed run nor a power loss can
// leave a truncated log behind for a later strict OpenLogs to reject:
// the directory holds either the previous pair or the new one.
func WriteLogs(ds *zeek.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Both temps are fully written and synced before either rename, so a
	// failure writing x509.log cannot commit a new ssl.log beside the old
	// x509.log.
	sslTmp := filepath.Join(dir, "ssl.log.tmp")
	if err := writeLogFile(sslTmp, func(f *os.File) error {
		sw := zeek.NewSSLWriter(f)
		// Fingerprint-free datasets keep the legacy 12-column schema byte
		// for byte; any JA3/JA4 column selects the extended header.
		sw.Extended = datasetHasFingerprints(ds)
		for i := range ds.Conns {
			if err := sw.Write(&ds.Conns[i]); err != nil {
				return err
			}
		}
		return sw.Flush()
	}); err != nil {
		return fmt.Errorf("mtls: write ssl.log: %w", err)
	}
	x509Tmp := filepath.Join(dir, "x509.log.tmp")
	if err := writeLogFile(x509Tmp, func(f *os.File) error {
		xw := zeek.NewX509Writer(f)
		for _, c := range certsSorted(ds) {
			rec := zeek.X509Record{TS: c.NotBefore, ID: fileIDFor(c), Cert: c}
			if err := xw.Write(&rec); err != nil {
				return err
			}
		}
		return xw.Flush()
	}); err != nil {
		os.Remove(sslTmp)
		return fmt.Errorf("mtls: write x509.log: %w", err)
	}
	// Both temp files are complete and durable; commit the pair.
	if err := atomicfile.Rename(sslTmp, filepath.Join(dir, "ssl.log")); err != nil {
		os.Remove(x509Tmp)
		return err
	}
	return atomicfile.Rename(x509Tmp, filepath.Join(dir, "x509.log"))
}

// datasetHasFingerprints reports whether any connection carries
// ClientHello fingerprints, which selects ssl.log's extended schema.
func datasetHasFingerprints(ds *zeek.Dataset) bool {
	for i := range ds.Conns {
		if ds.Conns[i].JA3 != "" || ds.Conns[i].JA4 != "" {
			return true
		}
	}
	return false
}

// writeLogFile creates path, runs emit over it, syncs, and closes it,
// removing the file on any failure.
func writeLogFile(path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// OpenLogs loads a dataset previously written with WriteLogs. Parsing
// is strict by default (the first malformed row aborts with an error
// describing it); pass Permissive and its companions to quarantine
// malformed rows instead:
//
//	ds, err := mtls.OpenLogs(dir)                                  // strict
//	ds, err := mtls.OpenLogs(dir, mtls.Permissive(),
//	    mtls.WithQuarantine(q), mtls.WithMetrics(reg))             // skip + capture
func OpenLogs(dir string, opts ...LogOption) (*zeek.Dataset, error) {
	sslF, err := os.Open(filepath.Join(dir, "ssl.log"))
	if err != nil {
		return nil, err
	}
	defer sslF.Close()
	x509F, err := os.Open(filepath.Join(dir, "x509.log"))
	if err != nil {
		return nil, err
	}
	defer x509F.Close()
	return zeek.LoadDataset(sslF, x509F, opts...)
}

package stream

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// ErrUnknownReport marks a Report call for a name that does not exist.
// Callers serving reports over HTTP use it to tell a client error (404)
// from an internal materialization failure (500).
var ErrUnknownReport = errors.New("stream: unknown report")

// reportFns maps the daemon's report names (URL path leaves under
// /reports/) to pipeline stages. Names follow the paper's table/figure
// numbering, plus the unnumbered §-level reports.
var reportFns = map[string]func(*core.Pipeline) any{
	"preprocess":   func(p *core.Pipeline) any { return p.PreprocessReport() },
	"table1":       func(p *core.Pipeline) any { return p.CertStats() },
	"figure1":      func(p *core.Pipeline) any { return p.Prevalence() },
	"table2":       func(p *core.Pipeline) any { return p.Services() },
	"table3":       func(p *core.Pipeline) any { return p.Inbound() },
	"figure2":      func(p *core.Pipeline) any { return p.Outbound() },
	"table4":       func(p *core.Pipeline) any { return p.DummyIssuers() },
	"serials":      func(p *core.Pipeline) any { return p.Serials() },
	"table5":       func(p *core.Pipeline) any { return p.SharingSame() },
	"table6":       func(p *core.Pipeline) any { return p.SharingCross() },
	"figure3":      func(p *core.Pipeline) any { return p.BadDates() },
	"figure4":      func(p *core.Pipeline) any { return p.Validity() },
	"figure5":      func(p *core.Pipeline) any { return p.Expired() },
	"table7":       func(p *core.Pipeline) any { return p.Utilization() },
	"table8":       func(p *core.Pipeline) any { return p.Contents() },
	"table9":       func(p *core.Pipeline) any { return p.Unidentified() },
	"table13":      func(p *core.Pipeline) any { return p.SharedInfo() },
	"table14":      func(p *core.Pipeline) any { return p.NonMutual() },
	"concerns":     func(p *core.Pipeline) any { return p.Concerns() },
	"santypes":     func(p *core.Pipeline) any { return p.SANTypes() },
	"durations":    func(p *core.Pipeline) any { return p.Durations() },
	"versions":     func(p *core.Pipeline) any { return p.Versions() },
	"fingerprints": func(p *core.Pipeline) any { return p.Fingerprints() },
}

// ReportNames lists every materializable report, sorted.
func ReportNames() []string {
	names := make([]string, 0, len(reportFns))
	for n := range reportFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Materializer is anything that can expose a consistent core.Pipeline:
// an Engine, or a distributed aggregator's merged view. Implementations must not let fn retain the pipeline.
type Materializer interface {
	WithPipeline(func(*core.Pipeline))
}

// MaterializeReport materializes one named report over m's current
// state — the registry and error taxonomy behind Engine.Report and the
// distributed aggregator's Report. The returned
// value is a fresh report struct safe to serialize after the call. An
// unknown name returns an error wrapping ErrUnknownReport; a panic during
// materialization (a bug, not a client mistake) is recovered into a plain
// error so one bad report cannot take down a long-running daemon.
func MaterializeReport(m Materializer, name string) (out any, err error) {
	fn, ok := reportFns[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownReport, name)
	}
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("stream: report %s: %v", name, p)
		}
	}()
	m.WithPipeline(func(p *core.Pipeline) { out = fn(p) })
	return out, nil
}

// Report materializes one named report over the current state; see
// MaterializeReport for the error taxonomy.
func (s *Engine) Report(name string) (any, error) {
	return MaterializeReport(s, name)
}

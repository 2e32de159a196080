package mtls

import (
	"repro/internal/metrics"
	"repro/internal/zeek"
)

// AnalyzeOption configures Analyze. The zero-option call uses one
// worker per CPU.
type AnalyzeOption func(*analyzeConfig)

type analyzeConfig struct {
	workers int
}

// WithWorkers sizes the analysis fan-out: 0 uses one worker per CPU, 1
// runs the analyses in order on the caller's goroutine, n>1 fans them
// out across n workers. Preprocessing is serial at every setting, and
// the Analysis is identical at every setting.
func WithWorkers(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.workers = n }
}

// LogOption configures OpenLogs' malformed-row policy. It is the zeek
// package's reader option, so the same values thread through to
// zeek.ForEachSSLBatch / zeek.LoadDataset.
type LogOption = zeek.Opt

// Strict selects fail-stop log parsing: the first malformed row aborts
// with an error describing it. This is OpenLogs' default.
func Strict() LogOption { return zeek.Strict() }

// Permissive makes OpenLogs skip malformed rows (quarantining and
// counting them via WithQuarantine/WithMetrics) instead of failing.
func Permissive() LogOption { return zeek.Permissive() }

// WithQuarantine captures each rejected row's raw line into q.
func WithQuarantine(q *zeek.Quarantine) LogOption { return zeek.WithQuarantine(q) }

// WithMetrics publishes per-(file, reason) rejection counters into reg;
// read them back with RejectTotals.
func WithMetrics(reg *metrics.Registry) LogOption { return zeek.WithMetrics(reg) }

package zeek

import "repro/internal/metrics"

// Opt is a functional option for the streaming readers: ForEachSSLBatch,
// ForEachX509Batch, and LoadDataset apply them over the strict default
// (fail-stop on the first malformed row), so
//
//	zeek.ForEachSSLBatch(r, fn)                            // strict
//	zeek.ForEachSSLBatch(r, fn, zeek.Permissive())         // skip bad rows
//	zeek.ForEachSSLBatch(r, fn, zeek.Permissive(),
//	    zeek.WithQuarantine(q), zeek.WithMetrics(reg))     // and capture them
type Opt func(*Options)

// Strict selects fail-stop parsing: the first malformed row aborts with
// an error describing it. This is the readers' default; the option
// exists to state it explicitly or to override an earlier Permissive.
func Strict() Opt { return func(o *Options) { o.Strict = true } }

// Permissive selects quarantine parsing: malformed rows are skipped
// (counted and captured via WithMetrics/WithQuarantine) and the rest of
// the log still loads.
func Permissive() Opt { return func(o *Options) { o.Strict = false } }

// WithQuarantine captures each rejected row's raw line into q.
func WithQuarantine(q *Quarantine) Opt { return func(o *Options) { o.Quarantine = q } }

// WithMetrics publishes per-(file, reason) rejection counters into reg
// (the zeek_rows_rejected_total family).
func WithMetrics(reg *metrics.Registry) Opt { return func(o *Options) { o.Metrics = reg } }

// resolveOpts folds opts over the readers' strict default.
func resolveOpts(opts []Opt) Options {
	o := Options{Strict: true}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

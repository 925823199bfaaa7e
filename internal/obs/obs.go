// Package obs is the simulator-wide observability layer: a metrics
// registry (counters and power-of-two histograms, plus snapshot
// providers that publish counters and gauges), a cycle-stamped timeline
// tracer exporting Chrome trace_event JSON and compact JSONL, and an
// invariant checker that validates cross-component accounting during a
// run and fails fast with a cycle-stamped diagnostic.
//
// Everything here is opt-in and costs nothing when disabled: components
// hold a nil *Run (or nil handles) and skip publication entirely, so the
// simulation hot paths stay allocation-free and byte-identical with
// observability off. When enabled, recording never schedules engine
// events or touches model state — attaching instruments cannot change
// simulated behaviour, only expose it.
//
// A Run bundles the instruments of one simulation; a Suite aggregates
// the Runs of a sweep (one per workload x scheme cell) behind a mutex so
// parallel sweeps can share one output file.
package obs

// MetricsFormatVersion identifies the metrics JSON schema emitted by
// Snapshot/SuiteSnapshot; bump on incompatible changes.
const MetricsFormatVersion = 1

// Run bundles the per-run observability instruments. Any field may be
// nil/zero: components must tolerate partially enabled runs. A Run is
// single-threaded, like the simulation it instruments.
type Run struct {
	// Name identifies the run in multi-run exports (workload/policy/...).
	Name string
	// Reg receives metric publications; nil disables metrics.
	Reg *Registry
	// Tr receives timeline spans; nil disables tracing.
	Tr *Tracer
	// CheckEvery is the invariant-sweep period in cycles; 0 disables the
	// checker.
	CheckEvery uint64
}

// Enabled reports whether any instrument is attached.
func (r *Run) Enabled() bool {
	return r != nil && (r.Reg != nil || r.Tr != nil || r.CheckEvery > 0)
}

// Collect snapshots the run's registry, which must be attached.
func (r *Run) Collect() Snapshot {
	s := r.Reg.Collect()
	s.Name = r.Name
	return s
}

package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Options selects which instruments a Suite attaches to each run; the
// zero value disables everything.
type Options struct {
	// Metrics enables the per-run metric registry.
	Metrics bool
	// Trace enables the timeline tracer.
	Trace bool
	// TraceSample keeps one of every N spans (0/1 = all); only meaningful
	// with Trace.
	TraceSample uint64
	// CheckEvery is the invariant-sweep period in cycles (0 = off).
	CheckEvery uint64
}

// Enabled reports whether any instrument is requested.
func (o Options) Enabled() bool { return o.Metrics || o.Trace || o.CheckEvery > 0 }

// NewRun builds a standalone Run from the options (nil when disabled).
func (o Options) NewRun(name string) *Run {
	if !o.Enabled() {
		return nil
	}
	r := &Run{Name: name, CheckEvery: o.CheckEvery}
	if o.Metrics {
		r.Reg = NewRegistry()
	}
	if o.Trace {
		r.Tr = NewTracer(o.TraceSample)
	}
	return r
}

// Suite aggregates the observability of a multi-run sweep. NewRun is
// safe to call from parallel sweep workers; each returned Run is then
// owned by exactly one single-threaded simulation. Exports must happen
// after the sweep has joined.
type Suite struct {
	opt  Options
	mu   sync.Mutex
	runs []*Run
}

// NewSuite creates a suite with the given per-run options.
func NewSuite(opt Options) *Suite { return &Suite{opt: opt} }

// Options returns the suite's per-run options.
func (s *Suite) Options() Options { return s.opt }

// NewRun registers and returns a new run (nil when the suite observes
// nothing, so callers can pass the result straight to attach points).
func (s *Suite) NewRun(name string) *Run {
	r := s.opt.NewRun(name)
	if r == nil {
		return nil
	}
	s.mu.Lock()
	s.runs = append(s.runs, r)
	s.mu.Unlock()
	return r
}

// sortedRuns returns the registered runs ordered by name (then by
// registration order for duplicates), so exports are deterministic even
// when runs were registered by parallel workers.
func (s *Suite) sortedRuns() []*Run {
	s.mu.Lock()
	runs := make([]*Run, len(s.runs))
	copy(runs, s.runs)
	s.mu.Unlock()
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	return runs
}

// SuiteSnapshot is the metrics JSON document covering every run of a
// sweep. A single-run tool emits the same shape with one entry.
type SuiteSnapshot struct {
	Version int        `json:"version"`
	Runs    []Snapshot `json:"runs"`
}

// Collect snapshots every run's registry.
func (s *Suite) Collect() SuiteSnapshot {
	out := SuiteSnapshot{Version: MetricsFormatVersion}
	for _, r := range s.sortedRuns() {
		out.Runs = append(out.Runs, r.Collect())
	}
	return out
}

// WriteMetricsJSON emits the SuiteSnapshot as indented JSON.
func (s *Suite) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Collect())
}

// WriteChromeTrace merges every run's spans into one Chrome trace_event
// document, one process (pid) per run.
func (s *Suite) WriteChromeTrace(w io.Writer) error {
	cw := newChromeWriter(w)
	for pid, r := range s.sortedRuns() {
		if r.Tr == nil {
			continue
		}
		writeChromeRun(cw, pid, r.Name, r.Tr.Spans())
	}
	return cw.close()
}

// WriteTraceJSONL emits every run's spans as one JSON object per line,
// tagged with the run name.
func (s *Suite) WriteTraceJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range s.sortedRuns() {
		for _, sp := range r.Tr.Spans() {
			b, err := json.Marshal(jsonlSpan{Run: r.Name, Span: sp})
			if err != nil {
				return err
			}
			// A write error sticks in bw, and Flush returns it.
			bw.Write(b)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

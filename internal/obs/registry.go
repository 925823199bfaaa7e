package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Counter is a monotonically increasing metric handle. The zero value is
// a no-op, so components can hold unregistered handles when metrics are
// disabled without branching at every increment site.
type Counter struct{ v *uint64 }

// Add increments the counter by n.
func (c Counter) Add(n uint64) {
	if c.v != nil {
		*c.v += n
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// histBuckets is the fixed bucket count of a power-of-two histogram:
// bucket i counts observations v with bits.Len64(v) == i, so bucket 0
// holds zeros, bucket 1 holds {1}, bucket 2 holds {2,3}, bucket i holds
// [2^(i-1), 2^i). 65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram accumulates a distribution over uint64 observations in
// power-of-two buckets. Observing allocates nothing; the bucket array is
// fixed. A nil *Histogram is a no-op receiver.
type Histogram struct {
	count, sum uint64
	min, max   uint64
	buckets    [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Emitter receives metric values from a snapshot provider.
type Emitter interface {
	// Counter emits one monotonic counter value.
	Counter(name string, v uint64)
	// Gauge emits one point-in-time value.
	Gauge(name string, v float64)
}

// Provider publishes a component's metrics at collection time. Providers
// are how hot-path components participate without paying any per-event
// cost: they snapshot counters they already maintain.
type Provider func(e Emitter)

// Registry is the per-run metric store. It is not safe for concurrent
// use; every simulation is single-threaded and owns its registry (see
// Suite for cross-run aggregation).
type Registry struct {
	counters  map[string]*uint64
	hists     map[string]*Histogram
	providers []Provider
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the handle for the named counter, registering it on
// first use. Handles stay valid for the registry's lifetime.
func (r *Registry) Counter(name string) Counter {
	v := r.counters[name]
	if v == nil {
		v = new(uint64)
		r.counters[name] = v
	}
	return Counter{v: v}
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterProvider adds a snapshot provider invoked at every Collect.
func (r *Registry) RegisterProvider(p Provider) {
	if p == nil {
		panic("obs: nil provider")
	}
	r.providers = append(r.providers, p)
}

// BucketCount is one non-empty histogram bucket: Count observations v
// with v <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is the collected state of one run's registry, serializable as
// the metrics JSON block.
type Snapshot struct {
	Version    int                          `json:"version"`
	Name       string                       `json:"name,omitempty"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter's collected value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Collect runs every provider and returns the merged snapshot of
// incremental and provided metrics. Providers overwrite incremental
// values on name collision — components should not share names.
func (r *Registry) Collect() Snapshot {
	s := Snapshot{
		Version:  MetricsFormatVersion,
		Counters: make(map[string]uint64, len(r.counters)),
	}
	for name, v := range r.counters {
		s.Counters[name] = *v
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	em := snapshotEmitter{s: &s}
	for _, p := range r.providers {
		p(em)
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: c})
	}
	return hs
}

// snapshotEmitter writes provider output into a snapshot under
// construction.
type snapshotEmitter struct{ s *Snapshot }

func (e snapshotEmitter) Counter(name string, v uint64) { e.s.Counters[name] = v }

func (e snapshotEmitter) Gauge(name string, v float64) {
	if e.s.Gauges == nil {
		e.s.Gauges = make(map[string]float64)
	}
	e.s.Gauges[name] = v
}

// WriteJSON emits the snapshot as indented JSON with deterministically
// ordered keys (encoding/json sorts map keys).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Validate checks the snapshot's schema: version match and a counters
// map (possibly empty but present after decoding).
func (s *Snapshot) Validate() error {
	if s.Version != MetricsFormatVersion {
		return fmt.Errorf("obs: unsupported metrics version %d (want %d)", s.Version, MetricsFormatVersion)
	}
	if s.Counters == nil {
		return fmt.Errorf("obs: metrics snapshot %q missing counters", s.Name)
	}
	return nil
}

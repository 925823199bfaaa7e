// Package resultio persists simulation results as JSON records and CSV
// rows so sweeps can be post-processed outside the simulator (plotting,
// regression tracking, archival). Records are self-describing: they
// carry the full configuration alongside the measured counters.
package resultio

import (
	"encoding/json"
	"fmt"
	"io"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
	"uvmsim/internal/stats"
)

// FormatVersion identifies the record schema; bump on incompatible
// changes.
const FormatVersion = 1

// Record is one archived simulation run.
type Record struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	// Scale and OversubPercent describe how the run was derived; zero
	// when the caller sized things manually.
	Scale          float64           `json:"scale,omitempty"`
	OversubPercent uint64            `json:"oversubPercent,omitempty"`
	Config         config.Config     `json:"config"`
	Counters       stats.Counters    `json:"counters"`
	Spans          []core.KernelSpan `json:"spans,omitempty"`
	// Metrics is the run's observability snapshot when the run was
	// executed with metrics collection on (absent otherwise).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// FromResult builds a record from a finished run.
func FromResult(res *core.Result, scale float64, oversubPercent uint64) *Record {
	return &Record{
		Version:        FormatVersion,
		Workload:       res.Workload,
		Scale:          scale,
		OversubPercent: oversubPercent,
		Config:         res.Config,
		Counters:       res.Counters,
		Spans:          res.Spans,
	}
}

// Write emits the record as indented JSON. The caller's record is
// never mutated: an unset Version is defaulted on a copy (writers must
// be side-effect-free — see TestWritersDoNotMutateInput).
func Write(w io.Writer, rec *Record) error {
	cp := *rec
	if cp.Version == 0 {
		cp.Version = FormatVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&cp)
}

// requireEOF rejects any non-whitespace bytes after the decoded JSON
// document. Every resultio reader enforces this: a truncated write that
// was later concatenated with another document, or a corrupted
// content-addressed cache entry, must fail loudly instead of parsing
// "successfully" as its leading prefix.
func requireEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("resultio: trailing data after JSON document")
	}
	return nil
}

// Read parses one record and validates its schema version and counters.
func Read(r io.Reader) (*Record, error) {
	var rec Record
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("resultio: %w", err)
	}
	if err := requireEOF(dec); err != nil {
		return nil, err
	}
	if err := validateRecord(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// validateRecord checks a decoded record's schema version, counters and
// optional metrics block (shared by Read and ReadCellEntry).
func validateRecord(rec *Record) error {
	if rec.Version != FormatVersion {
		return fmt.Errorf("resultio: unsupported record version %d (want %d)", rec.Version, FormatVersion)
	}
	if rec.Workload == "" {
		return fmt.Errorf("resultio: record missing workload")
	}
	if err := rec.Counters.Validate(); err != nil {
		return fmt.Errorf("resultio: %w", err)
	}
	if rec.Metrics != nil {
		if err := rec.Metrics.Validate(); err != nil {
			return fmt.Errorf("resultio: %w", err)
		}
		if err := checkMetricsAgainstCounters(rec.Metrics, &rec.Counters); err != nil {
			return fmt.Errorf("resultio: %w", err)
		}
	}
	return nil
}

// metricForCounter maps the canonical metric names the driver publishes
// to the stats.Counters fields they must mirror exactly.
var metricForCounter = []struct {
	metric string
	field  func(*stats.Counters) uint64
}{
	{"sim.cycles", func(c *stats.Counters) uint64 { return c.Cycles }},
	{"uvm.access.near", func(c *stats.Counters) uint64 { return c.NearAccesses }},
	{"uvm.access.remote_reads", func(c *stats.Counters) uint64 { return c.RemoteReads }},
	{"uvm.access.remote_writes", func(c *stats.Counters) uint64 { return c.RemoteWrites }},
	{"uvm.fault.far", func(c *stats.Counters) uint64 { return c.FarFaults }},
	{"uvm.fault.batches", func(c *stats.Counters) uint64 { return c.FaultBatches }},
	{"uvm.migrate.pages", func(c *stats.Counters) uint64 { return c.MigratedPages }},
	{"uvm.migrate.prefetched_pages", func(c *stats.Counters) uint64 { return c.PrefetchedPages }},
	{"uvm.migrate.thrashed_pages", func(c *stats.Counters) uint64 { return c.ThrashedPages }},
	{"uvm.evict.pages", func(c *stats.Counters) uint64 { return c.EvictedPages }},
	{"uvm.evict.writeback_pages", func(c *stats.Counters) uint64 { return c.WrittenBackPages }},
	{"uvm.pcie.h2d_bytes", func(c *stats.Counters) uint64 { return c.H2DBytes }},
	{"uvm.pcie.d2h_bytes", func(c *stats.Counters) uint64 { return c.D2HBytes }},
	{"uvm.tlb.hits", func(c *stats.Counters) uint64 { return c.TLBHits }},
	{"uvm.tlb.misses", func(c *stats.Counters) uint64 { return c.TLBMisses }},
	{"uvm.tlb.shootdowns", func(c *stats.Counters) uint64 { return c.TLBShootdowns }},
	{"gpu.instructions", func(c *stats.Counters) uint64 { return c.Instructions }},
	{"gpu.mem_instructions", func(c *stats.Counters) uint64 { return c.MemInstructions }},
	{"gpu.warps_retired", func(c *stats.Counters) uint64 { return c.WarpsRetired }},
}

// checkMetricsAgainstCounters cross-validates a metrics snapshot against
// the stats block of the same run: every canonical metric present in the
// snapshot must equal its counters field.
func checkMetricsAgainstCounters(m *obs.Snapshot, c *stats.Counters) error {
	for _, mc := range metricForCounter {
		got, ok := m.Counters[mc.metric]
		if !ok {
			continue // partially instrumented snapshots are fine
		}
		if want := mc.field(c); got != want {
			return fmt.Errorf("metric %q = %d disagrees with counters value %d", mc.metric, got, want)
		}
	}
	return nil
}

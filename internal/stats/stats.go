// Package stats defines the metric counters collected by a simulation
// run and the derived report used by the experiment harness.
package stats

import (
	"fmt"
	"strings"
)

// Counters aggregates the raw event counts of one run. The UVM driver
// and GPU model increment these; the simulator fills in Cycles at the
// end.
type Counters struct {
	// Cycles is the total kernel execution time in GPU core cycles
	// (host-side phases are not simulated).
	Cycles uint64

	// NearAccesses counts 128B transactions served from device DRAM.
	NearAccesses uint64
	// RemoteReads and RemoteWrites count zero-copy transactions served
	// from host-pinned memory over the interconnect.
	RemoteReads  uint64
	RemoteWrites uint64

	// FarFaults counts basic-block far-faults raised by the GMMU (a
	// block with multiple concurrent faulting warps counts once).
	FarFaults uint64
	// FaultBatches counts driver fault-processing rounds (each costing
	// the 45us handling latency).
	FaultBatches uint64

	// MigratedPages counts 4KB pages copied host-to-device, including
	// prefetches.
	MigratedPages uint64
	// PrefetchedPages is the subset of MigratedPages that moved due to a
	// prefetch decision rather than a demand fault.
	PrefetchedPages uint64
	// ThrashedPages counts 4KB pages migrated host-to-device that had
	// been evicted earlier in the run (re-migrations). This is the
	// quantity Fig. 7 plots.
	ThrashedPages uint64
	// EvictedPages counts 4KB pages evicted from device memory.
	EvictedPages uint64
	// WrittenBackPages is the subset of EvictedPages that were dirty and
	// paid a device-to-host transfer.
	WrittenBackPages uint64

	// H2DBytes and D2HBytes are payload bytes moved per direction
	// (migrations + remote traffic, excluding transaction headers).
	H2DBytes uint64
	D2HBytes uint64

	// TLBHits and TLBMisses count GMMU translation lookups; misses pay
	// the page-walk latency. TLBShootdowns counts translations dropped
	// by eviction.
	TLBHits       uint64
	TLBMisses     uint64
	TLBShootdowns uint64

	// Instructions counts warp instructions issued (compute + memory).
	Instructions uint64
	// MemInstructions counts memory instructions issued.
	MemInstructions uint64
	// WarpsRetired counts warps that ran to completion.
	WarpsRetired uint64
}

// RemoteAccesses returns the total zero-copy transaction count.
func (c *Counters) RemoteAccesses() uint64 { return c.RemoteReads + c.RemoteWrites }

// Validate checks cross-counter invariants that every correct run must
// satisfy; integration tests call this after each simulation.
func (c *Counters) Validate() error {
	if c.PrefetchedPages > c.MigratedPages {
		return fmt.Errorf("stats: prefetched pages %d exceed migrated pages %d", c.PrefetchedPages, c.MigratedPages)
	}
	if c.ThrashedPages > c.MigratedPages {
		return fmt.Errorf("stats: thrashed pages %d exceed migrated pages %d", c.ThrashedPages, c.MigratedPages)
	}
	if c.WrittenBackPages > c.EvictedPages {
		return fmt.Errorf("stats: written-back pages %d exceed evicted pages %d", c.WrittenBackPages, c.EvictedPages)
	}
	if c.ThrashedPages > 0 && c.EvictedPages == 0 {
		return fmt.Errorf("stats: thrashing without evictions")
	}
	if c.FarFaults > 0 && c.FaultBatches == 0 {
		return fmt.Errorf("stats: faults without batches")
	}
	if c.FaultBatches > c.FarFaults {
		return fmt.Errorf("stats: more batches %d than faults %d", c.FaultBatches, c.FarFaults)
	}
	if c.MemInstructions > c.Instructions {
		return fmt.Errorf("stats: memory instructions %d exceed instructions %d", c.MemInstructions, c.Instructions)
	}
	if c.TLBShootdowns > c.TLBMisses {
		// Every TLB entry was inserted by a miss, so shootdowns cannot
		// outnumber misses.
		return fmt.Errorf("stats: TLB shootdowns %d exceed misses %d", c.TLBShootdowns, c.TLBMisses)
	}
	return nil
}

// String renders a compact human-readable summary.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d near=%d remote=%d(r%d/w%d) faults=%d batches=%d",
		c.Cycles, c.NearAccesses, c.RemoteAccesses(), c.RemoteReads, c.RemoteWrites, c.FarFaults, c.FaultBatches)
	fmt.Fprintf(&b, " migrated=%d(prefetch %d, thrash %d) evicted=%d(wb %d)",
		c.MigratedPages, c.PrefetchedPages, c.ThrashedPages, c.EvictedPages, c.WrittenBackPages)
	fmt.Fprintf(&b, " h2d=%dB d2h=%dB", c.H2DBytes, c.D2HBytes)
	return b.String()
}

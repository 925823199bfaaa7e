package uvm

import (
	"fmt"

	"uvmsim/internal/interconnect"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// driverObs bundles the driver's observability handles. The driver holds
// a nil *driverObs when observability is off, so every hook below hides
// behind a single pointer test and the fault/migration/eviction paths
// stay byte-identical with instrumentation disabled. All handles are
// individually nil-safe, so a Run with only a tracer (or only metrics)
// works without further branching.
type driverObs struct {
	tr    *obs.Tracer
	check bool // enforce the no-pinned-victim invariant at selection time

	// selStrict/selRelaxed count victim selections by pass
	// (uvm.evict.selections.<POLICY>.{strict,relaxed}).
	selStrict  obs.Counter
	selRelaxed obs.Counter
	// thrashEvents counts block re-migrations (a previously evicted
	// block coming back), the per-event form of stats.ThrashedPages.
	thrashEvents obs.Counter

	batchSize      *obs.Histogram // faults per batch round
	dmaBlocks      *obs.Histogram // blocks per host-to-device DMA
	prefetchBlocks *obs.Histogram // prefetched blocks per faulting leaf
	victimTrips    *obs.Histogram // max round-trip count of evicted units

	// batchOpenedAt stamps the cycle the pending fault batch opened, so
	// the fault_batch span covers the full handling latency.
	batchOpenedAt sim.Cycle
}

// SetObs attaches (or with a disabled Run detaches) the run's
// observability instruments to the driver. Call before the simulation
// starts; attaching instruments never changes simulated behaviour.
func (d *Driver) SetObs(r *obs.Run) {
	d.o = nil
	if !r.Enabled() {
		return
	}
	o := &driverObs{tr: r.Tr, check: r.CheckEvery > 0}
	if r.Reg != nil {
		pol := d.evictor.Name()
		o.selStrict = r.Reg.Counter("uvm.evict.selections." + pol + ".strict")
		o.selRelaxed = r.Reg.Counter("uvm.evict.selections." + pol + ".relaxed")
		o.thrashEvents = r.Reg.Counter("uvm.thrash.block_remigrations")
		o.batchSize = r.Reg.Histogram("uvm.fault.batch_size")
		o.dmaBlocks = r.Reg.Histogram("uvm.migrate.blocks_per_dma")
		o.prefetchBlocks = r.Reg.Histogram("uvm.prefetch.blocks_per_fault")
		o.victimTrips = r.Reg.Histogram("uvm.evict.victim_round_trips")
		d.publishSnapshots(r.Reg)
		d.link.PublishMetrics(r.Reg)
		d.publishStageMetrics(r.Reg)
	}
	d.o = o
}

// publishStageMetrics registers a provider for every pipeline stage that
// implements mm.MetricPublisher (the learned stages do), exposing their
// internal state — epoch counts, arm pulls, exploration draws — as
// counters read at collection time.
func (d *Driver) publishStageMetrics(reg *obs.Registry) {
	for _, stage := range []any{d.batcher, d.planner, d.evictor, d.pfgov} {
		pub, ok := stage.(mm.MetricPublisher)
		if !ok {
			continue
		}
		reg.RegisterProvider(func(e obs.Emitter) {
			pub.PublishMetrics(func(name string, value uint64) {
				e.Counter(name, value)
			})
		})
	}
}

// publishSnapshots registers the provider exposing the driver's canonical
// counters (the same values stats.Counters reports) plus access-counter
// file and device-memory state. Values are read at collection time only.
func (d *Driver) publishSnapshots(reg *obs.Registry) {
	reg.RegisterProvider(func(e obs.Emitter) {
		st := d.st
		e.Counter("uvm.access.near", st.NearAccesses)
		e.Counter("uvm.access.remote_reads", st.RemoteReads)
		e.Counter("uvm.access.remote_writes", st.RemoteWrites)
		e.Counter("uvm.fault.far", st.FarFaults)
		e.Counter("uvm.fault.batches", st.FaultBatches)
		e.Counter("uvm.migrate.pages", st.MigratedPages)
		e.Counter("uvm.migrate.prefetched_pages", st.PrefetchedPages)
		e.Counter("uvm.migrate.thrashed_pages", st.ThrashedPages)
		e.Counter("uvm.evict.pages", st.EvictedPages)
		e.Counter("uvm.evict.writeback_pages", st.WrittenBackPages)
		e.Counter("uvm.tlb.hits", st.TLBHits)
		e.Counter("uvm.tlb.misses", st.TLBMisses)
		e.Counter("uvm.tlb.shootdowns", st.TLBShootdowns)
		e.Counter("gpu.instructions", st.Instructions)
		e.Counter("gpu.mem_instructions", st.MemInstructions)
		e.Counter("gpu.warps_retired", st.WarpsRetired)
		// Byte totals come from the link directly so they are correct
		// even before Finalize folds them into stats.
		e.Counter("uvm.pcie.h2d_bytes", d.link.Stats(interconnect.HostToDevice).Bytes)
		e.Counter("uvm.pcie.d2h_bytes", d.link.Stats(interconnect.DeviceToHost).Bytes)
		accessHalvings, tripHalvings := d.ctrs.Halvings()
		e.Counter("uvm.counters.total_accesses", d.ctrs.TotalAccesses())
		e.Counter("uvm.counters.halvings_access", accessHalvings)
		e.Counter("uvm.counters.halvings_trips", tripHalvings)
		e.Gauge("uvm.counters.tracked", float64(d.ctrs.Tracked()))
		e.Counter("devmem.total_pages", d.mem.TotalPages())
		e.Counter("devmem.peak_pages", d.mem.PeakPages())
		oversub := uint64(0)
		if d.mem.Oversubscribed() {
			oversub = 1
		}
		e.Counter("devmem.oversubscribed", oversub)
		e.Gauge("devmem.allocated_pages", float64(d.mem.AllocatedPages()))
		e.Gauge("devmem.occupancy", d.mem.Occupancy())
	})
}

// noteVictim enforces the no-pinned-victim invariant and counts the
// selection pass. unit is the victim's chunk or block number, strict
// tells which pass chose it, and pinned is the victim's pinning under
// that pass, derived by the caller from live driver state. Panics with
// a cycle-stamped *obs.Violation when a pinned unit was chosen while
// invariant checking is on — a policy or candidate-index bug, never a
// legal outcome.
func (d *Driver) noteVictim(unit uint64, strict, pinned bool) {
	o := d.o
	if o == nil {
		return
	}
	if strict {
		o.selStrict.Inc()
	} else {
		o.selRelaxed.Inc()
	}
	if o.check && pinned {
		panic(&obs.Violation{
			Cycle: uint64(d.eng.Now()),
			Check: "no-pinned-victim",
			Err: fmt.Errorf("eviction engine %s selected pinned unit %d (strict=%v)",
				d.evictor.Name(), unit, strict),
		})
	}
}

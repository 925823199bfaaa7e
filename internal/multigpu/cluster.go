// Package multigpu implements the paper's proposed future work (§VIII):
// running collaborative applications across a multi-GPU cluster and
// using the dynamic-threshold heuristic as a per-GPU memory throttling
// mechanism.
//
// A Cluster couples N GPU+driver replicas. Each kernel of a workload is
// split into contiguous CTA ranges, one per GPU, and executed
// bulk-synchronously: all GPUs launch their share, and the next kernel
// starts only after every GPU finishes (the barrier of collaborative
// UVM applications). Every GPU has its own device memory and its own
// PCIe link to host memory, so each driver's Adaptive threshold
// responds to its *local* occupancy — the throttling behaviour the
// paper wants to study.
//
// By default all replicas share one discrete-event engine and the run
// is single-threaded. When cfg.ClusterWorkers > 1 the cluster instead
// runs in conservative parallel discrete-event (PDES) mode — one engine
// per GPU+driver node, advanced concurrently up to a lookahead-derived
// horizon (see pdes.go) — producing byte-identical results at a
// fraction of the wall-clock time.
//
// Host-side coherence between GPUs is not modelled: collaborative
// workloads partition their writes, and the policies under study see
// only access streams (see DESIGN.md §7).
package multigpu

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// eventBudget bounds any single engine; exceeding it means a model
// livelock and panics loudly rather than hanging.
const eventBudget = 4_000_000_000

// node is one GPU with its private UVM driver. In sequential mode every
// node's eng field aliases the cluster's shared engine; in PDES mode
// each node owns its engine and all of the node's mutable simulation
// state (driver, GPU, engine) is touched by exactly one worker at a
// time (see pdes.go for the synchronization argument).
type node struct {
	eng *sim.Engine
	drv *uvm.Driver
	g   *gpu.GPU

	// Per-kernel bulk-synchronous bookkeeping (PDES mode): launched is
	// set by the coordinator at launch time, finished by the kernel's
	// completion event on whichever worker drains this node.
	launched bool
	finished bool
}

// onKernelDone is the prebound kernel-completion callback (PDES mode).
func (n *node) onKernelDone(sim.Cycle) { n.finished = true }

// Cluster runs one workload across several GPUs.
type Cluster struct {
	eng   *sim.Engine // shared engine; nil when par drives per-node engines
	par   *Coordinator
	nodes []*node
	built *workloads.Built
	cfg   config.Config

	// Observability (see Observe); zero when disabled.
	checkers   []*obs.Checker
	checkEvery uint64
}

// Workers reports the PDES worker count the cluster will use (1 =
// sequential single-engine mode).
func (c *Cluster) Workers() int {
	if c.par == nil {
		return 1
	}
	return c.par.workers
}

// Observe attaches per-GPU observability: mk is called once per GPU and
// may return nil to skip that GPU. A shared CheckEvery (the maximum over
// the returned runs) drives one cluster-wide invariant sweep that walks
// every driver's consistency check, panicking with a cycle-stamped
// *obs.Violation on the first breach. In sequential mode the sweep
// rides on the engine daemon; in PDES mode it runs at horizon
// boundaries, with every worker parked, in fixed node order. Call
// before Run.
func (c *Cluster) Observe(mk func(gpuIdx int) *obs.Run) {
	c.checkers = nil
	c.checkEvery = 0
	if c.eng != nil {
		c.eng.SetDaemon(0, nil)
	} else {
		c.par.SetSweep(0, nil)
	}
	for idx, n := range c.nodes {
		r := mk(idx)
		n.drv.SetObs(r)
		n.g.SetObs(r)
		if !r.Enabled() {
			continue
		}
		if r.CheckEvery > c.checkEvery {
			c.checkEvery = r.CheckEvery
		}
		if r.Reg != nil {
			r.Reg.RegisterProvider(func(e obs.Emitter) {
				// Cluster-wide totals, identical between the sequential
				// and PDES modes: the barrier clock and the union of
				// every node's event stream.
				e.Counter("sim.cycles", c.clusterNow())
				e.Counter("sim.events_fired", c.clusterFired())
			})
			if c.par != nil {
				c.par.Publish(r.Reg)
			}
		}
		ck := &obs.Checker{}
		drv := n.drv
		ck.Add(fmt.Sprintf("gpu%d-driver-consistency", idx), drv.CheckConsistencyMidRun)
		c.checkers = append(c.checkers, ck)
	}
	if c.checkEvery == 0 {
		return
	}
	if c.eng != nil {
		// The sweep rides on the engine daemon so it observes every
		// driver at real event boundaries and never extends the run.
		c.eng.SetDaemon(sim.Cycle(c.checkEvery), c.checkTick)
	} else {
		c.par.SetSweep(sim.Cycle(c.checkEvery), c.checkSweep)
	}
}

// clusterNow returns the cluster-wide clock: the shared engine's in
// sequential mode, the latest node clock in PDES mode (after a run all
// node clocks sit on the final barrier, so this is the makespan).
func (c *Cluster) clusterNow() uint64 {
	if c.eng != nil {
		return uint64(c.eng.Now())
	}
	var max sim.Cycle
	for _, n := range c.nodes {
		if now := n.eng.Now(); now > max {
			max = now
		}
	}
	return uint64(max)
}

// clusterFired returns the total events fired across the cluster. The
// per-node engines of PDES mode fire exactly the events the shared
// engine fires sequentially, so the sum matches eng.Fired() there.
func (c *Cluster) clusterFired() uint64 {
	if c.eng != nil {
		return c.eng.Fired()
	}
	var sum uint64
	for _, n := range c.nodes {
		sum += n.eng.Fired()
	}
	return sum
}

// checkTick is the cluster-wide invariant sweep, driven by the engine
// daemon (sequential mode).
func (c *Cluster) checkTick() { c.checkSweep(c.eng.Now()) }

// checkSweep walks every checker in fixed node order, stamping
// violations with the given cycle.
func (c *Cluster) checkSweep(now sim.Cycle) {
	for _, ck := range c.checkers {
		if err := ck.RunAll(uint64(now)); err != nil {
			panic(err)
		}
	}
}

// Result aggregates a cluster run.
type Result struct {
	// Cycles is the makespan: the cycle at which the last GPU finished
	// the last kernel.
	Cycles uint64
	// PerGPU holds each GPU's driver counters.
	PerGPU []stats.Counters
}

// TotalThrashedPages sums thrashing across GPUs.
func (r *Result) TotalThrashedPages() uint64 {
	var sum uint64
	for i := range r.PerGPU {
		sum += r.PerGPU[i].ThrashedPages
	}
	return sum
}

// TotalRemoteAccesses sums zero-copy traffic across GPUs.
func (r *Result) TotalRemoteAccesses() uint64 {
	var sum uint64
	for i := range r.PerGPU {
		sum += r.PerGPU[i].RemoteAccesses()
	}
	return sum
}

// New creates a cluster of nGPUs over the workload. cfg.DeviceMemBytes
// is the per-GPU memory capacity. cfg.ClusterWorkers > 1 selects the
// conservative-PDES execution mode (pdes.go); results are byte-identical
// either way.
func New(b *workloads.Built, cfg config.Config, nGPUs int) *Cluster {
	if nGPUs < 1 {
		panic(fmt.Sprintf("multigpu: %d GPUs", nGPUs))
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("multigpu: %v", err))
	}
	c := &Cluster{built: b, cfg: cfg}
	workers := cfg.ClusterWorkers
	if workers > nGPUs {
		workers = nGPUs
	}
	if workers > 1 {
		// PDES mode: one engine per node, advanced concurrently.
		for i := 0; i < nGPUs; i++ {
			eng := sim.NewEngine()
			eng.SetEventBudget(eventBudget)
			drv := uvm.New(eng, cfg, b.Space)
			c.nodes = append(c.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
		}
		// The safe horizon extends one host-memory round trip (two link
		// traversals) beyond the earliest pending event: no node can
		// observe another's activity any sooner. A zero lookahead would
		// force lockstep, so it falls back to the sequential path.
		if la := 2 * c.nodes[0].drv.Link().Lookahead(); la > 0 {
			c.par = newCoordinator(c.nodes, workers, la)
			return c
		}
		c.nodes = nil
	}
	eng := sim.NewEngine()
	eng.SetEventBudget(eventBudget)
	c.eng = eng
	for i := 0; i < nGPUs; i++ {
		drv := uvm.New(eng, cfg, b.Space)
		c.nodes = append(c.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
	}
	return c
}

// splitKernel returns GPU idx's contiguous CTA share of k, or ok=false
// when the GPU has no work for this kernel.
func splitKernel(k gpu.Kernel, nGPUs, idx int) (gpu.Kernel, bool) {
	per := (k.CTAs + nGPUs - 1) / nGPUs
	lo := idx * per
	hi := lo + per
	if hi > k.CTAs {
		hi = k.CTAs
	}
	if lo >= hi {
		return gpu.Kernel{}, false
	}
	return gpu.Kernel{
		Name:        fmt.Sprintf("%s@gpu%d", k.Name, idx),
		CTAs:        hi - lo,
		WarpsPerCTA: k.WarpsPerCTA,
		NewWarp: func(cta, w int) gpu.WarpProgram {
			return k.NewWarp(lo+cta, w)
		},
	}, true
}

// Run executes the workload bulk-synchronously and returns the result.
func (c *Cluster) Run() *Result {
	for _, k := range c.built.Kernels {
		c.runKernel(k)
	}
	if c.eng != nil {
		c.eng.Run() // drain trailing prefetch transfers
		return c.finish(c.eng.Now())
	}
	var barrier sim.Cycle
	for _, n := range c.nodes {
		if n.eng.Now() > barrier {
			barrier = n.eng.Now()
		}
	}
	return c.finish(barrier)
}

// runKernel runs one kernel bulk-synchronously across the GPUs: every
// GPU launches its CTA share, and the call returns only after the
// whole cluster drains (the kernel barrier).
func (c *Cluster) runKernel(k gpu.Kernel) {
	if c.par != nil {
		c.runKernelParallel(k)
		return
	}
	remaining := 0
	for idx, n := range c.nodes {
		sub, ok := splitKernel(k, len(c.nodes), idx)
		if !ok {
			continue
		}
		remaining++
		n.g.Launch(sub, func(sim.Cycle) { remaining-- })
	}
	c.eng.Run()
	if remaining != 0 {
		panic(fmt.Sprintf("multigpu: kernel %s left %d GPUs unfinished", k.Name, remaining))
	}
}

// finish validates quiescence and collects the per-GPU counters; shared
// by the sequential and PDES paths, which by construction reach it with
// identical driver states and makespan.
func (c *Cluster) finish(makespan sim.Cycle) *Result {
	res := &Result{Cycles: uint64(makespan)}
	for _, n := range c.nodes {
		if n.drv.PendingWork() {
			panic("multigpu: driver did not quiesce")
		}
		if err := n.drv.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("multigpu: %v", err))
		}
		n.drv.Finalize()
		st := *n.drv.Stats()
		st.Cycles = res.Cycles
		res.PerGPU = append(res.PerGPU, st)
	}
	return res
}

// RunWorkload is the convenience entry point: it builds the named
// workload, gives each of nGPUs capacity so that the *per-GPU share* of
// the working set is oversubPercent of its memory, applies the policy,
// and runs. With contiguous CTA splitting each GPU's hot footprint is
// roughly workingSet/nGPUs, so oversubscription pressure per GPU stays
// comparable across cluster sizes.
func RunWorkload(name string, scale float64, nGPUs int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) *Result {
	b, cfg := core.PrepareWorkload(name, scale, nGPUs, oversubPercent, pol, base)
	return New(b, cfg, nGPUs).Run()
}

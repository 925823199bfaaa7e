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
// Every GPU+driver node owns its discrete-event engine, and a
// Coordinator (pdes.go) drains all of them to empty once per kernel on
// cfg.ClusterWorkers threads (0 or 1 = the calling goroutine alone).
// Results are byte-identical for every worker count.
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

// node is one GPU with its private UVM driver and engine. All of the
// node's mutable simulation state (driver, GPU, engine, checker) is
// touched by exactly one worker at a time (see pdes.go for the
// synchronization argument).
type node struct {
	eng *sim.Engine
	drv *uvm.Driver
	g   *gpu.GPU
	ck  *obs.Checker // nil when the node is not observed

	// Per-kernel bulk-synchronous bookkeeping: launched is set at launch
	// time, finished by the kernel's completion event.
	launched bool
	finished bool
}

// onKernelDone is the prebound kernel-completion callback.
func (n *node) onKernelDone(sim.Cycle) { n.finished = true }

// checkTick is the node's engine daemon: it runs the node's invariant
// checks, panicking with a violation stamped with the node clock on the
// first breach.
func (n *node) checkTick() {
	if err := n.ck.RunAll(uint64(n.eng.Now())); err != nil {
		panic(err)
	}
}

// Cluster runs one workload across several GPUs.
type Cluster struct {
	par   *Coordinator
	nodes []*node
	built *workloads.Built
	cfg   config.Config
}

// Workers reports the drain worker count the cluster will use, in
// [1, nGPUs].
func (c *Cluster) Workers() int { return c.par.workers }

// Observe attaches per-GPU observability: mk is called once per GPU and
// may return nil to skip that GPU. A shared CheckEvery (the maximum over
// the returned runs) drives the invariant sweep over every observed
// driver's consistency check, panicking with a cycle-stamped
// *obs.Violation on the first breach. Each node's own engine daemon
// sweeps that node mid-kernel. Call before Run.
func (c *Cluster) Observe(mk func(gpuIdx int) *obs.Run) {
	var every sim.Cycle
	for idx, n := range c.nodes {
		n.ck = nil
		n.eng.SetDaemon(0, nil)
		r := mk(idx)
		n.drv.SetObs(r)
		n.g.SetObs(r)
		if !r.Enabled() {
			continue
		}
		if sim.Cycle(r.CheckEvery) > every {
			every = sim.Cycle(r.CheckEvery)
		}
		if r.Reg != nil {
			r.Reg.RegisterProvider(func(e obs.Emitter) {
				// Cluster-wide totals, identical for every worker
				// count: the barrier clock and the union of every
				// node's event stream.
				e.Counter("sim.cycles", c.clusterNow())
				e.Counter("sim.events_fired", c.clusterFired())
			})
			c.par.Publish(r.Reg)
		}
		n.ck = &obs.Checker{}
		n.ck.Add(fmt.Sprintf("gpu%d-driver-consistency", idx), n.drv.CheckConsistencyMidRun)
	}
	if every == 0 {
		return
	}
	// Sweeps ride on engine daemons so they observe drivers at real
	// event boundaries and never extend the run.
	for _, n := range c.nodes {
		if n.ck != nil {
			n.eng.SetDaemon(every, n.checkTick)
		}
	}
}

// clusterNow returns the cluster-wide clock: the latest node clock
// (after a run all node clocks sit on the final barrier, so this is the
// makespan).
func (c *Cluster) clusterNow() uint64 {
	var max sim.Cycle
	for _, n := range c.nodes {
		if now := n.eng.Now(); now > max {
			max = now
		}
	}
	return uint64(max)
}

// clusterFired returns the total events fired across the cluster.
func (c *Cluster) clusterFired() uint64 {
	var sum uint64
	for _, n := range c.nodes {
		sum += n.eng.Fired()
	}
	return sum
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

// MaxGPUs bounds the cluster size (and the CXL co-location scenario's
// GPU count): every node carries its own engine (about 8 KB, the timing
// wheel inline), driver and device memory.
const MaxGPUs = 64

// New creates a cluster of nGPUs in [1, MaxGPUs] over the workload.
// cfg.DeviceMemBytes is the per-GPU memory capacity; cfg.ClusterWorkers
// is the drain thread count (0 or 1 = one, clamped to nGPUs). Results
// are byte-identical for every worker count.
func New(b *workloads.Built, cfg config.Config, nGPUs int) *Cluster {
	if nGPUs < 1 || nGPUs > MaxGPUs {
		panic(fmt.Sprintf("multigpu: %d GPUs out of range (1..%d)", nGPUs, MaxGPUs))
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("multigpu: %v", err))
	}
	c := &Cluster{built: b, cfg: cfg}
	engines := make([]*sim.Engine, nGPUs)
	for i := range engines {
		eng := sim.NewEngine()
		eng.SetEventBudget(eventBudget)
		drv := uvm.New(eng, cfg, b.Space)
		c.nodes = append(c.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
		engines[i] = eng
	}
	c.par = NewCoordinator(engines, min(max(cfg.ClusterWorkers, 1), nGPUs))
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

// Run executes the workload bulk-synchronously and returns the result:
// for each kernel every GPU launches its CTA share, and the next kernel
// starts only after the coordinator has drained the whole cluster and
// aligned its clocks (the kernel barrier).
func (c *Cluster) Run() *Result {
	var makespan sim.Cycle
	for _, k := range c.built.Kernels {
		c.launch(k)
		makespan = c.par.Drain()
		c.barrier(k)
	}
	return c.finish(makespan)
}

// launch starts every node's CTA share of k, in node order.
func (c *Cluster) launch(k gpu.Kernel) {
	for idx, n := range c.nodes {
		sub, ok := splitKernel(k, len(c.nodes), idx)
		n.launched = ok
		n.finished = false
		if ok {
			n.g.Launch(sub, n.onKernelDone)
		}
	}
}

// barrier closes kernel k once every engine has drained (trailing
// prefetch transfers included): every launched share must have
// finished.
func (c *Cluster) barrier(k gpu.Kernel) {
	for idx, n := range c.nodes {
		if n.launched && !n.finished {
			panic(fmt.Sprintf("multigpu: kernel %s left gpu%d unfinished", k.Name, idx))
		}
	}
}

// finish validates quiescence and collects the per-GPU counters.
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

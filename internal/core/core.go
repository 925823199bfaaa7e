// Package core runs the simulation loop: it wires GPU models, UVM
// drivers and a workload into nodes (an engine, a driver and a GPU
// each) and launches the workload's kernels in order, with device
// synchronization between them (the cudaDeviceSynchronize model of the
// benchmarks). A single-GPU run is a one-node cluster; a cluster (the
// paper's §VIII future work, see DESIGN.md §12) splits every kernel
// into contiguous CTA shares, one per GPU, and the next kernel starts
// only after every GPU finishes (the barrier of collaborative UVM
// applications). Every GPU has its own device memory and PCIe link to
// host memory, so each driver's Adaptive threshold responds to its
// local occupancy.
//
// The node engines drain through a sim.Coordinator once per kernel, on
// cfg.ClusterWorkers threads (0 or 1 = the calling goroutine alone);
// results are byte-identical for every worker count. Host-side
// coherence between GPUs is not modelled: collaborative workloads
// partition their writes, and the policies under study see only access
// streams (see DESIGN.md §7).
package core

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// eventBudget bounds every node engine; exceeding it means a model
// livelock and panics loudly rather than hanging.
const eventBudget = 2_000_000_000

// MaxGPUs bounds the cluster size (and the CXL co-location scenario's
// GPU count): every node carries its own engine (about 8 KB, the timing
// wheel inline), driver and device memory.
const MaxGPUs = 64

// KernelSpan records one kernel launch's window: from the previous
// barrier to the latest completion of the kernel's shares.
type KernelSpan struct {
	Name  string
	Iter  int // logical iteration (1-based)
	Start sim.Cycle
	End   sim.Cycle
}

// Result is the outcome of one simulation run.
type Result struct {
	Workload string
	Config   config.Config
	// Counters are GPU 0's counters (the only GPU of a single-GPU run).
	Counters stats.Counters
	// PerGPU holds every GPU's counters; each Cycles is the makespan.
	PerGPU []stats.Counters
	Spans  []KernelSpan
}

// Runtime returns the total kernel execution time in cycles: the
// makespan of a cluster.
func (r *Result) Runtime() uint64 { return r.Counters.Cycles }

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

// node is one GPU with its private UVM driver and engine. All of its
// mutable simulation state is touched by one coordinator worker at a
// time (see sim/coordinator.go for the synchronization argument).
type node struct {
	eng *sim.Engine
	drv *uvm.Driver
	g   *gpu.GPU

	// Observability (obs.go); nil when the node is not observed.
	tr *obs.Tracer
	ck *obs.Checker

	// Per-kernel barrier bookkeeping: launched is set at launch,
	// finished and end by the kernel's completion event.
	launched, finished bool
	end                sim.Cycle
}

// onKernelDone is the node's kernel-completion callback.
func (n *node) onKernelDone(at sim.Cycle) { n.finished, n.end = true, at }

// Simulator couples one built workload with one configuration over one
// or more GPU nodes.
type Simulator struct {
	// Engine, Driver and GPU are GPU 0's: the only GPU of a single-GPU
	// run.
	Engine *sim.Engine
	Driver *uvm.Driver
	GPU    *gpu.GPU

	nodes []*node
	co    *sim.Coordinator
	built *workloads.Built
	cfg   config.Config
}

// New creates a single-GPU simulator for the workload under the
// configuration.
func New(b *workloads.Built, cfg config.Config) *Simulator { return NewCluster(b, cfg, 1) }

// NewCluster creates a simulator of nGPUs in [1, MaxGPUs] over the
// workload. cfg.DeviceMemBytes is the per-GPU memory capacity;
// cfg.ClusterWorkers is the drain thread count (0 or 1 = one, clamped
// to nGPUs).
func NewCluster(b *workloads.Built, cfg config.Config, nGPUs int) *Simulator {
	if nGPUs < 1 || nGPUs > MaxGPUs {
		panic(fmt.Sprintf("core: %d GPUs out of range (1..%d)", nGPUs, MaxGPUs))
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	s := &Simulator{built: b, cfg: cfg}
	engines := make([]*sim.Engine, nGPUs)
	for i := range engines {
		eng := sim.NewEngine()
		eng.SetEventBudget(eventBudget)
		drv := uvm.New(eng, cfg, b.Space)
		s.nodes = append(s.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
		engines[i] = eng
	}
	s.Engine, s.Driver, s.GPU = s.nodes[0].eng, s.nodes[0].drv, s.nodes[0].g
	s.co = sim.NewCoordinator(engines, min(max(cfg.ClusterWorkers, 1), nGPUs))
	return s
}

// SetObserver installs a driver access observer (tracing) on GPU 0.
func (s *Simulator) SetObserver(obs uvm.AccessObserver) { s.Driver.SetObserver(obs) }

// Workers reports the drain worker count, in [1, nGPUs].
func (s *Simulator) Workers() int { return s.co.Workers() }

// Run executes every kernel in order and returns the result: each node
// launches its CTA share, the coordinator drains every engine (trailing
// prefetch transfers included) and aligns the clocks on the barrier,
// and the next kernel starts from there. It panics if a share does not
// finish, if the memory subsystem fails to quiesce (a model deadlock)
// or if an invariant does not hold.
func (s *Simulator) Run() *Result {
	res := &Result{Workload: s.built.Name, Config: s.cfg}
	var barrier sim.Cycle
	for i, k := range s.built.Kernels {
		s.launch(k)
		next := s.co.Drain()
		span := KernelSpan{Name: k.Name, Iter: s.built.IterOf[i], Start: barrier, End: s.barrier(k)}
		res.Spans = append(res.Spans, span)
		s.observeKernel(span)
		barrier = next
	}
	s.finish(res, barrier)
	return res
}

// launch starts every node's CTA share of k, in node order.
func (s *Simulator) launch(k gpu.Kernel) {
	for idx, n := range s.nodes {
		sub, ok := splitKernel(k, len(s.nodes), idx)
		n.launched, n.finished = ok, false
		if ok {
			n.g.Launch(sub, n.onKernelDone)
		}
	}
}

// splitKernel returns GPU idx's contiguous CTA share of k, or ok=false
// when the GPU has no work for this kernel. A single GPU runs k as is.
func splitKernel(k gpu.Kernel, nGPUs, idx int) (gpu.Kernel, bool) {
	if nGPUs == 1 {
		return k, true
	}
	per := (k.CTAs + nGPUs - 1) / nGPUs
	lo := idx * per
	hi := min(lo+per, k.CTAs)
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

// barrier closes kernel k once every engine has drained: every launched
// share must have finished. It returns the latest completion cycle.
func (s *Simulator) barrier(k gpu.Kernel) sim.Cycle {
	var end sim.Cycle
	for idx, n := range s.nodes {
		if !n.launched {
			continue
		}
		if !n.finished {
			panic(fmt.Sprintf("core: kernel %s left gpu%d unfinished", k.Name, idx))
		}
		end = max(end, n.end)
	}
	return end
}

// finish checks that every node quiesced and holds its invariants,
// collects the counters stamped with the makespan, and hands every
// GPU's warps, every driver's fault-path storage and every engine's
// slot arena and overflow-run storage on to later runs (gpu.Recycle,
// uvm.Driver.Recycle, sim.Engine.Recycle).
func (s *Simulator) finish(res *Result, makespan sim.Cycle) {
	for idx, n := range s.nodes {
		if n.drv.PendingWork() {
			panic(fmt.Sprintf("core: %s did not quiesce on gpu%d (stuck migrations)", s.built.Name, idx))
		}
		if n.ck != nil {
			if err := n.ck.RunAll(uint64(makespan)); err != nil {
				panic(err)
			}
		}
		// The run has quiesced, so the strict (non-mid-run) walk applies.
		if err := n.drv.CheckConsistency(); err != nil {
			panic(&obs.Violation{Cycle: uint64(makespan), Check: s.checkName(idx, "driver-consistency-final"), Err: err})
		}
		n.drv.Finalize()
		c := *n.drv.Stats()
		c.Cycles = uint64(makespan)
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("core: %s: gpu%d: %v", s.built.Name, idx, err))
		}
		res.PerGPU = append(res.PerGPU, c)
		n.g.Recycle()
		n.drv.Recycle()
		n.eng.Recycle()
	}
	res.Counters = res.PerGPU[0]
}

// Run builds and runs a workload in one step.
func Run(b *workloads.Built, cfg config.Config) *Result {
	return New(b, cfg).Run()
}

// DeriveConfig derives a run configuration for the workload b: the
// migration policy is applied (with the paper's replacement-policy
// pairing) and device memory is sized so that a 1/shares share of the
// working set is oversubPercent of capacity (100 = fits exactly).
// shares is 1 for single-GPU runs and the cluster size otherwise, so
// per-GPU oversubscription pressure stays comparable across cluster
// sizes. Callers holding an already-built (possibly memoized and
// shared) workload derive per-cell configurations without rebuilding
// it: a Built is immutable once constructed, so one instance may back
// any number of concurrent runs, each with its own derived config.
func DeriveConfig(b *workloads.Built, shares int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) config.Config {
	if shares < 1 {
		panic(fmt.Sprintf("core: invalid share count %d", shares))
	}
	ws := b.WorkingSet() / uint64(shares)
	return base.WithPolicy(pol).WithOversubscription(ws, oversubPercent)
}

// RunWorkload is the experiment-harness entry point: it builds the named
// workload at the given scale, sizes each of nGPUs so its share of the
// working set is oversubPercent of capacity (see DeriveConfig), applies
// the migration policy, and runs.
func RunWorkload(name string, scale float64, nGPUs int, oversubPercent uint64, pol config.MigrationPolicy, base config.Config) *Result {
	b := workloads.MustGet(name)(scale)
	return NewCluster(b, DeriveConfig(b, nGPUs, oversubPercent, pol, base), nGPUs).Run()
}

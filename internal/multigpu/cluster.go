// Package multigpu is the paper's proposed future work (§VIII): running
// collaborative applications across a multi-GPU cluster and using the
// dynamic-threshold heuristic as a per-GPU memory throttling
// mechanism.
//
// A Cluster is a view of the simulation loop (internal/core) over N
// GPU nodes: each kernel is split into contiguous CTA ranges, one per
// GPU, and executed bulk-synchronously, with each GPU's own device
// memory and PCIe link, so each driver's Adaptive threshold responds to
// its local occupancy — the throttling behaviour the paper wants to
// study. This package adds the cluster-level result and the sizing
// entry point.
package multigpu

import (
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// Cluster runs one workload across several GPUs.
type Cluster struct{ s *core.Simulator }

// New creates a cluster of nGPUs in [1, core.MaxGPUs] over the workload.
// cfg.DeviceMemBytes is the per-GPU memory capacity; cfg.ClusterWorkers
// is the drain thread count (0 or 1 = one, clamped to nGPUs). Results
// are byte-identical for every worker count.
func New(b *workloads.Built, cfg config.Config, nGPUs int) *Cluster {
	return &Cluster{core.NewCluster(b, cfg, nGPUs)}
}

// Workers reports the drain worker count the cluster will use, in
// [1, nGPUs].
func (c *Cluster) Workers() int { return c.s.Workers() }

// Observe attaches per-GPU observability: mk is called once per GPU and
// may return nil to skip that GPU (see core.Simulator.Observe). Call
// before Run.
func (c *Cluster) Observe(mk func(gpu int) *obs.Run) { c.s.Observe(mk) }

// Run executes the workload bulk-synchronously and returns the result.
func (c *Cluster) Run() *Result {
	r := c.s.Run()
	return &Result{Cycles: r.Counters.Cycles, PerGPU: r.PerGPU, Spans: r.Spans}
}

// Result aggregates a cluster run.
type Result struct {
	// Cycles is the makespan: the cycle at which the last GPU finished
	// the last kernel.
	Cycles uint64
	// PerGPU holds each GPU's driver counters.
	PerGPU []stats.Counters
	// Spans holds the kernel windows, barrier to barrier.
	Spans []core.KernelSpan
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

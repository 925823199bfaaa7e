// Package uvmsim is the public API of the GPU Unified-Memory simulator
// reproducing "Adaptive Page Migration for Irregular Data-intensive
// Applications under GPU Memory Oversubscription" (Ganguly, Zhang, Yang,
// Melhem — IPDPS 2020).
//
// The simulator models a Pascal-class GPU (SMs, warps, coalescing), the
// CUDA Unified Memory driver (far-fault batching, the tree-based
// prefetcher, 2MB LRU eviction), a full-duplex PCIe link, Volta-style
// per-64KB access counters, remote zero-copy access, and the paper's
// contribution: the Adaptive dynamic migration threshold
//
//	td = ts * allocatedPages/totalPages + 1   (no oversubscription)
//	td = ts * (r + 1) * p                     (after oversubscription)
//
// together with an access-counter-driven LFU replacement policy.
//
// # Quick start
//
//	b := uvmsim.BuildWorkload("sssp", 1.0)
//	cfg := uvmsim.DefaultConfig().
//		WithPolicy(uvmsim.PolicyAdaptive).
//		WithOversubscription(b.WorkingSet(), 125)
//	res := uvmsim.Run(b, cfg)
//	fmt.Println(res.Counters.String())
//
// Figures regenerates any list of the paper's figures ("fig1" …
// "fig8") and its hints and multi-GPU extensions from one grid that
// simulates each distinct cell once; Table1 renders the configuration.
// See EXPERIMENTS.md for measured-versus-paper results.
package uvmsim

import (
	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/experiments"
	"uvmsim/internal/gpu"
	"uvmsim/internal/report"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// Core configuration and result types.
type (
	// Config is the simulated-system configuration (Table I).
	Config = config.Config
	// MigrationPolicy selects the delayed-migration scheme.
	MigrationPolicy = config.MigrationPolicy
	// ReplacementPolicy selects LRU or counter-driven LFU eviction.
	ReplacementPolicy = config.ReplacementPolicy
	// PrefetcherKind selects the hardware prefetcher model.
	PrefetcherKind = config.PrefetcherKind
	// Result is the outcome of one simulation run.
	Result = core.Result
	// KernelSpan is one kernel launch's timing window.
	KernelSpan = core.KernelSpan
	// Counters are the raw metrics of a run.
	Counters = stats.Counters
	// Simulator couples a workload with a configuration. Use New when
	// the run needs set-up before it starts (driver hints, an access
	// observer, observability), or Run for one-shot runs.
	Simulator = core.Simulator
)

// Workload-construction types, exported so downstream users can build
// custom workloads against the simulator (see examples/custom-workload).
type (
	// Workload is an instantiated benchmark ready to simulate.
	Workload = workloads.Built
	// Space is a managed virtual address space (cudaMallocManaged model).
	Space = alloc.Space
	// Allocation is one managed allocation.
	Allocation = alloc.Allocation
	// Kernel describes one kernel launch.
	Kernel = gpu.Kernel
	// Instr is one warp instruction. Leave Stride zero and fill
	// Addrs[:NumAddrs] for per-lane (gather) addresses; set Stride to
	// the byte distance between lanes and only Addrs[0] for a dense
	// lane range, which the coalescer handles without per-lane work.
	// The GPU reuses a warp's Instr across Next calls, so a program
	// that emits both forms sets Stride on every instruction; Addrs
	// does not survive between calls (the coalescer overwrites it), so
	// Next writes every lane address it emits.
	Instr = gpu.Instr
	// WarpProgram generates a warp's instruction stream.
	WarpProgram = gpu.WarpProgram
)

// Migration policy constants (the four schemes of §VI).
const (
	PolicyDisabled = config.PolicyDisabled
	PolicyAlways   = config.PolicyAlways
	PolicyOversub  = config.PolicyOversub
	PolicyAdaptive = config.PolicyAdaptive
)

// Replacement policy constants.
const (
	ReplaceLRU = config.ReplaceLRU
	ReplaceLFU = config.ReplaceLFU
)

// Prefetcher constants.
const (
	PrefetchTree       = config.PrefetchTree
	PrefetchNone       = config.PrefetchNone
	PrefetchSequential = config.PrefetchSequential
)

// Advice mirrors the cudaMemAdvise-style hints of §III-C; attach hints
// with Simulator.Driver.Advise before running (see
// examples/hints-vs-adaptive).
type Advice = uvm.Advice

// Advice constants.
const (
	AdviceNone       = uvm.AdviceNone
	AdvicePreferHost = uvm.AdvicePreferHost
	AdvicePinHost    = uvm.AdvicePinHost
)

// DefaultConfig returns the boldface Table I configuration.
func DefaultConfig() Config { return config.Default() }

// PresetConfig returns a named architecture preset ("pascal" = Table I
// default, "volta" = V100-class).
func PresetConfig(name string) (Config, error) { return config.Preset(name) }

// NewSpace returns an empty managed address space for custom workloads.
func NewSpace() *Space { return alloc.NewSpace() }

// Policies lists the four migration policies in the paper's order.
func Policies() []MigrationPolicy { return config.Policies() }

// Workloads returns all benchmark names in the paper's order:
// backprop, fdtd, hotspot, srad (regular); bfs, nw, ra, sssp (irregular).
func Workloads() []string { return workloads.Names() }

// AllWorkloads returns the paper workloads followed by the extras
// (spatter, pointerchase), which are buildable through BuildWorkload but
// excluded from the figure sweeps.
func AllWorkloads() []string { return workloads.AllNames() }

// IsRegular reports the paper's classification of a workload.
func IsRegular(name string) bool { return workloads.IsRegular(name) }

// BuildWorkload instantiates a named benchmark at the given scale
// (1.0 = paper size, tens of MB of working set). It panics on unknown
// names; use Workloads for the valid set.
func BuildWorkload(name string, scale float64) *Workload {
	return workloads.MustGet(name)(scale)
}

// New creates a Simulator for a workload under a configuration.
func New(w *Workload, cfg Config) *Simulator { return core.New(w, cfg) }

// Run simulates the workload under the configuration and returns the
// result.
func Run(w *Workload, cfg Config) *Result { return core.Run(w, cfg) }

// RunWorkload builds the named workload at scale, sizes device memory so
// the working set is oversubPercent of capacity (100 = fits exactly,
// 125 = the paper's oversubscription point), applies the policy, and
// runs.
func RunWorkload(name string, scale float64, oversubPercent uint64, pol MigrationPolicy, base Config) *Result {
	return core.RunWorkload(name, scale, 1, oversubPercent, pol, base)
}

// Multi-GPU extension (the paper's §VIII future work, DESIGN.md §12):
// collaborative execution across a cluster with per-GPU memory
// throttling. A cluster is a Simulator over N GPUs, New being its
// one-GPU case; Observe, Workers and the per-GPU results come from it.

// Cluster runs one workload bulk-synchronously across several GPUs.
type Cluster struct{ *core.Simulator }

// ClusterResult is a cluster run's Result: Counters are GPU 0's, and
// PerGPU, Spans and the cluster totals cover every GPU.
type ClusterResult struct {
	*Result
	// Cycles is the makespan, equal to Counters.Cycles. It remains only
	// until the bench module reads Counters.Cycles instead.
	Cycles uint64
}

// NewCluster creates a cluster of nGPUs (at most 64) over the workload
// (cfg.DeviceMemBytes is per-GPU capacity). It runs the same loop as
// New, which is its one-GPU case: every GPU runs on its own engine, and
// the parallel discrete-event coordinator (DESIGN.md §12) drains them
// on cfg.ClusterWorkers threads, producing byte-identical results for
// every thread count.
func NewCluster(w *Workload, cfg Config, nGPUs int) *Cluster {
	return &Cluster{core.NewCluster(w, cfg, nGPUs)}
}

// Run executes the workload and returns the result.
func (c *Cluster) Run() *ClusterResult { return clusterResult(c.Simulator.Run()) }

// RunCluster builds and runs the named workload on nGPUs, sizing each
// GPU's memory so its share of the working set is oversubPercent of
// capacity. cfg.ClusterWorkers is the drain thread count, as in
// NewCluster.
func RunCluster(name string, scale float64, nGPUs int, oversubPercent uint64, pol MigrationPolicy, base Config) *ClusterResult {
	return clusterResult(core.RunWorkload(name, scale, nGPUs, oversubPercent, pol, base))
}

func clusterResult(r *Result) *ClusterResult {
	return &ClusterResult{Result: r, Cycles: r.Counters.Cycles}
}

// Experiment harness re-exports.
type (
	// ExperimentOptions configures an experiment sweep.
	ExperimentOptions = experiments.Options
	// TournamentOptions configures a pipeline tournament.
	TournamentOptions = experiments.TournamentOptions
	// TournamentResult is a ranked pipeline leaderboard.
	TournamentResult = experiments.TournamentResult
	// Table is a formatted experiment result.
	Table = report.Table
	// Figure is what one name of Figures renders.
	Figure = experiments.Figure
)

// Tournament runs every requested planner x prefetch-governor
// combination over the workload matrix under oversubscription and
// returns the deterministic leaderboard.
var Tournament = experiments.Tournament

// Figure and table regeneration entry points.
var (
	// Figures renders the named figures, each distinct cell once.
	Figures = experiments.Figures
	// Fig6And7Cycles runs the one sweep behind Figures 6 and 7 and
	// reports its deterministic simulated-cycle total (the paper-fig67
	// benchmark checksum).
	Fig6And7Cycles = experiments.Fig6And7Cycles
	Fig8           = experiments.Fig8
	Table1         = experiments.Table1
)

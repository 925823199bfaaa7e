// Command uvmsim runs one workload under one configuration and prints
// the resulting metrics.
//
// Usage:
//
//	uvmsim -workload sssp -policy adaptive -oversub 125 [-scale 1.0]
//	       [-ts 8] [-p 8] [-granularity 2m|64k] [-spans] [-csv]
//
// Memory-management pipeline stages (see DESIGN.md, "Memory-management
// pipeline") are selected by name, one flag per stage; empty picks the
// built-in stage for the configuration (the paper's pairing of
// replacement policy and prefetcher):
//
//	uvmsim -workload sssp -planner thrash-guard
//	uvmsim -workload sssp -evictor lru -pf-governor bandit-pf
//
// Observability (see DESIGN.md, "Observability"):
//
//	uvmsim -workload sssp -metrics-json metrics.json     # metric registry ('-' = stdout)
//	uvmsim -workload sssp -trace-out trace.json          # Chrome trace_event
//	uvmsim -workload sssp -trace-out t.jsonl -trace-sample 8
//	uvmsim -workload sssp -check-invariants 10000        # periodic checker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/core"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/resultio"
	"uvmsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects every parsed flag so the simulation body is testable
// without a process boundary.
type options struct {
	workload    string
	scale       float64
	oversub     uint64
	gpus        int
	workers     int
	arch        string
	policy      string
	ts          uint64
	penalty     uint64
	granularity string
	planner     string
	evictor     string
	pfgov       string

	seed          uint64
	banditEpsilon uint64

	tenants      string
	cxlPoolMB    uint64
	cxlBW        float64
	cxlLatency   uint64
	cxlThreshold uint64
	poolPolicy   string
	coloEpochs   int
	graphFile    string
	spans        bool
	csv          bool
	jsonOut      string
	obs          cliutil.ObsFlags

	set []string // the flags given on the command line
}

// run parses args and executes one simulation, returning the process
// exit code. All failures — flag errors, validation errors, unwritable
// output paths, invariant violations — surface as a one-line message on
// stderr and a non-zero code, never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uvmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "sssp", "workload name: "+strings.Join(uvmsim.AllWorkloads(), ", "))
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale factor (1.0 = paper size)")
	fs.Uint64Var(&o.oversub, "oversub", 125, "working set as % of device memory (100 = fits)")
	fs.IntVar(&o.gpus, "gpus", 1, "cluster size: run the workload bulk-synchronously across this many GPUs (multi-GPU §VIII extension)")
	fs.IntVar(&o.workers, "workers", 0, "cluster drain threads with -gpus > 1 (0 or 1 = one, at most -gpus; results are identical for every count)")
	fs.StringVar(&o.arch, "arch", "pascal", "architecture preset: pascal, volta")
	fs.StringVar(&o.policy, "policy", "adaptive", "migration policy: disabled, always, oversub, adaptive")
	fs.Uint64Var(&o.ts, "ts", 8, "static access counter threshold")
	fs.Uint64Var(&o.penalty, "p", 8, "multiplicative migration penalty")
	fs.StringVar(&o.granularity, "granularity", "2m", "eviction granularity: 2m, 64k")
	fs.StringVar(&o.planner, "planner", "", "migration planner: "+strings.Join(mm.PlannerNames(), ", ")+" (default: threshold)")
	fs.StringVar(&o.evictor, "evictor", "", "eviction engine: "+strings.Join(mm.EvictorNames(), ", ")+" (default: the paper's pairing for -policy)")
	fs.StringVar(&o.pfgov, "pf-governor", "", "prefetch governor: "+strings.Join(mm.PrefetchGovernorNames(), ", ")+" (default: tree)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the learned pipeline stages (runs with equal seeds are byte-identical)")
	fs.Uint64Var(&o.banditEpsilon, "bandit-epsilon", 10, "bandit exploration probability in percent (0 = never explore)")
	fs.StringVar(&o.tenants, "tenants", "", "run the multi-tenant co-location mode: comma-separated workload:gpu[:priority] tenants sharing -gpus GPUs over a pooled CXL tier (see DESIGN.md §15)")
	fs.Uint64Var(&o.cxlPoolMB, "cxl-pool-mb", 0, "pooled CXL tier capacity in MiB (required with -tenants)")
	fs.Float64Var(&o.cxlBW, "cxl-bw", 0, "CXL port bandwidth in bytes/cycle (0 = built-in default)")
	fs.Uint64Var(&o.cxlLatency, "cxl-latency", 0, "CXL port latency in cycles (0 = built-in default)")
	fs.Uint64Var(&o.cxlThreshold, "cxl-threshold", 0, "read-counter threshold for replica grants (0 = built-in default)")
	fs.StringVar(&o.poolPolicy, "pool-policy", "", "pooled-tier policy: "+strings.Join(mm.PoolPolicyNames(), ", ")+" (default: cxl-repl)")
	fs.IntVar(&o.coloEpochs, "colo-epochs", 0, "co-location barrier epochs (0 = built-in default)")
	fs.StringVar(&o.graphFile, "graph", "", "edge-list file for bfs/sssp (src dst [weight] per line; overrides the synthetic input)")
	fs.BoolVar(&o.spans, "spans", false, "print per-kernel timing spans")
	fs.BoolVar(&o.csv, "csv", false, "print metrics as CSV")
	fs.StringVar(&o.jsonOut, "json", "", "write a self-describing JSON record of the run to this file")
	o.obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.set = cliutil.Visited(fs)
	if err := simulate(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "uvmsim:", err)
		return 2
	}
	return 0
}

// simulate validates the options, runs the workload and writes every
// requested output.
func simulate(o options, stdout, stderr io.Writer) error {
	if err := checkMode(o); err != nil {
		return err
	}
	if o.gpus < 1 || o.gpus > core.MaxGPUs {
		return fmt.Errorf("-gpus must be at least 1 and at most %d, got %d", core.MaxGPUs, o.gpus)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if o.tenants != "" {
		return simulateColocation(o, stdout, stderr)
	}
	pol, err := cliutil.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	cfg, err := uvmsim.PresetConfig(o.arch)
	if err != nil {
		return err
	}
	if o.ts == 0 {
		return fmt.Errorf("-ts must be positive (a zero access-counter threshold is meaningless)")
	}
	if o.penalty == 0 {
		return fmt.Errorf("-p must be positive (a zero migration penalty is meaningless)")
	}
	if err := cliutil.CheckScale(o.scale); err != nil {
		return err
	}
	if o.oversub == 0 {
		return fmt.Errorf("-oversub must be positive, got 0")
	}
	if o.gpus > 1 && o.jsonOut != "" {
		return fmt.Errorf("-json applies to single-GPU runs only (got -gpus %d)", o.gpus)
	}
	if o.banditEpsilon > 100 {
		return fmt.Errorf("-bandit-epsilon is a percentage, got %d (want 0-100)", o.banditEpsilon)
	}
	cfg = cfg.WithPolicy(pol)
	cfg.StaticThreshold = o.ts
	cfg.Penalty = o.penalty
	if cfg.EvictionGranularity, err = cliutil.ParseGranularity(o.granularity); err != nil {
		return err
	}
	if cfg.MMPipeline.Planner, err = cliutil.ParseComponentName("planner", o.planner, mm.PlannerNames()); err != nil {
		return err
	}
	if cfg.MMPipeline.Evictor, err = cliutil.ParseComponentName("evictor", o.evictor, mm.EvictorNames()); err != nil {
		return err
	}
	if cfg.MMPipeline.Prefetcher, err = cliutil.ParseComponentName("prefetch governor", o.pfgov, mm.PrefetchGovernorNames()); err != nil {
		return err
	}
	cfg.PolicySeed = o.seed
	cfg.BanditEpsilonPct = o.banditEpsilon

	if !slices.Contains(uvmsim.AllWorkloads(), o.workload) {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(uvmsim.AllWorkloads(), ", "))
	}
	out, err := o.obs.Open(slices.Contains(o.set, "trace-sample"), stdout, stderr, o.jsonOut)
	if err != nil {
		return err
	}
	defer out.Close()
	var b *uvmsim.Workload
	if o.graphFile != "" {
		b, err = buildFromGraphFile(o.workload, o.graphFile)
		if err != nil {
			return err
		}
	} else {
		b = uvmsim.BuildWorkload(o.workload, o.scale)
	}
	// Each GPU of a cluster gets capacity for its 1/N share of the
	// working set at the requested oversubscription, mirroring the
	// multi-GPU harness (gpus=1 keeps the single-GPU sizing).
	cfg = cfg.WithOversubscription(b.WorkingSet()/uint64(o.gpus), o.oversub)
	cfg.ClusterWorkers = o.workers

	class := "irregular"
	if b.Regular {
		class = "regular"
	}
	// A named evictor or prefetch governor replaces the configured kind,
	// so the header names the stage that runs.
	replacement, prefetcher := cfg.Replacement.String(), cfg.Prefetcher.String()
	if cfg.MMPipeline.Evictor != "" {
		replacement = cfg.MMPipeline.Evictor
	}
	if cfg.MMPipeline.Prefetcher != "" {
		prefetcher = cfg.MMPipeline.Prefetcher
	}
	fmt.Fprintf(stdout, "workload=%s (%s) ws=%s capacity=%s policy=%v ts=%d p=%d replacement=%s prefetcher=%s\n",
		b.Name, class, memunits.HumanBytes(b.WorkingSet()),
		memunits.HumanBytes(cfg.DeviceMemBytes), cfg.Policy, cfg.StaticThreshold,
		cfg.Penalty, replacement, prefetcher)

	cl := uvmsim.NewCluster(b, cfg, o.gpus)
	cl.ObserveAs(fmt.Sprintf("%s/%v/%d%%", b.Name, cfg.Policy, o.oversub), out.Suite.NewRun)
	return out.Run(func() error {
		res := cl.Run()
		if o.gpus > 1 {
			printCluster(stdout, o.csv, cl.Workers(), res)
		} else {
			printCounters(stdout, o.csv, &res.Counters)
		}
		if o.spans {
			printSpans(stdout, res.Spans)
		}
		return out.Write(o.jsonOut, func(w io.Writer) error {
			rec := resultio.FromResult(res.Result, o.scale, o.oversub)
			if o.obs.MetricsJSON != "" {
				snap := out.Suite.Collect()
				rec.Metrics = &snap.Runs[0]
			}
			return resultio.Write(w, rec)
		})
	})
}

// printCounters prints a single-GPU run's counters.
func printCounters(stdout io.Writer, csv bool, c *uvmsim.Counters) {
	if !csv {
		fmt.Fprintln(stdout, c.String())
		return
	}
	fmt.Fprintln(stdout, "metric,value")
	for _, kv := range [][2]interface{}{
		{"cycles", c.Cycles}, {"near_accesses", c.NearAccesses},
		{"remote_reads", c.RemoteReads}, {"remote_writes", c.RemoteWrites},
		{"far_faults", c.FarFaults}, {"fault_batches", c.FaultBatches},
		{"migrated_pages", c.MigratedPages}, {"prefetched_pages", c.PrefetchedPages},
		{"thrashed_pages", c.ThrashedPages}, {"evicted_pages", c.EvictedPages},
		{"written_back_pages", c.WrittenBackPages},
		{"tlb_hits", c.TLBHits}, {"tlb_misses", c.TLBMisses}, {"tlb_shootdowns", c.TLBShootdowns},
		{"h2d_bytes", c.H2DBytes}, {"d2h_bytes", c.D2HBytes},
		{"instructions", c.Instructions}, {"warps_retired", c.WarpsRetired},
	} {
		fmt.Fprintf(stdout, "%s,%v\n", kv[0], kv[1])
	}
}

// printCluster prints a cluster run's aggregate makespan and totals,
// then every GPU's metrics.
func printCluster(stdout io.Writer, csv bool, workers int, res *uvmsim.ClusterResult) {
	fmt.Fprintf(stdout, "cluster gpus=%d workers=%d makespan=%d thrashed_pages=%d remote_accesses=%d\n",
		len(res.PerGPU), workers, res.Counters.Cycles, res.TotalThrashedPages(), res.TotalRemoteAccesses())
	if csv {
		fmt.Fprintln(stdout, "gpu,metric,value")
		for i := range res.PerGPU {
			c := &res.PerGPU[i]
			for _, kv := range [][2]interface{}{
				{"cycles", c.Cycles}, {"far_faults", c.FarFaults},
				{"migrated_pages", c.MigratedPages}, {"prefetched_pages", c.PrefetchedPages},
				{"thrashed_pages", c.ThrashedPages}, {"evicted_pages", c.EvictedPages},
				{"remote_reads", c.RemoteReads}, {"remote_writes", c.RemoteWrites},
				{"h2d_bytes", c.H2DBytes}, {"d2h_bytes", c.D2HBytes},
			} {
				fmt.Fprintf(stdout, "%d,%s,%v\n", i, kv[0], kv[1])
			}
		}
		return
	}
	for i := range res.PerGPU {
		fmt.Fprintf(stdout, "gpu%d: %s\n", i, res.PerGPU[i].String())
	}
}

// printSpans prints one line per kernel window, barrier to barrier.
func printSpans(w io.Writer, spans []uvmsim.KernelSpan) {
	for _, sp := range spans {
		fmt.Fprintf(w, "kernel %-24s iter %2d  [%12d .. %12d]  %d cycles\n",
			sp.Name, sp.Iter, sp.Start, sp.End, sp.End-sp.Start)
	}
}

// buildFromGraphFile loads an edge-list graph and instantiates bfs or
// sssp over it.
func buildFromGraphFile(workload, path string) (*uvmsim.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := workloads.ParseEdgeList(f)
	if err != nil {
		return nil, err
	}
	switch workload {
	case "bfs":
		return workloads.BFSOnGraph(g)
	case "sssp":
		return workloads.SSSPOnGraph(g, 40)
	default:
		return nil, fmt.Errorf("-graph only applies to bfs and sssp, not %q", workload)
	}
}

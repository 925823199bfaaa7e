// Command uvmsim runs one workload under one configuration and prints
// the resulting metrics.
//
// Usage:
//
//	uvmsim -workload sssp -policy adaptive -oversub 125 [-scale 1.0]
//	       [-ts 8] [-p 8] [-replacement lfu] [-prefetcher tree]
//	       [-granularity 2m|64k] [-spans] [-csv]
//
// Memory-management pipeline stages (see DESIGN.md, "Memory-management
// pipeline") are selected by registry name; empty picks the built-in
// stage for the configuration:
//
//	uvmsim -workload sssp -planner thrash-guard
//	uvmsim -workload sssp -evictor lru -batcher dedup
//
// Observability (see DESIGN.md, "Observability"):
//
//	uvmsim -workload sssp -metrics-json metrics.json     # metric registry
//	uvmsim -workload sssp -trace-out trace.json          # Chrome trace_event
//	uvmsim -workload sssp -trace-out t.jsonl -trace-sample 8
//	uvmsim -workload sssp -check-invariants 10000        # periodic checker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
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
	replacement string
	prefetcher  string
	granularity string
	planner     string
	evictor     string
	batcher     string
	pfgov       string

	seed          uint64
	banditEpsilon uint64
	banditEpoch   uint64

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

	metricsJSON     string
	traceOut        string
	traceSample     uint64
	checkInvariants uint64
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
	fs.IntVar(&o.workers, "workers", 0, "cluster PDES worker threads with -gpus > 1 (0 or 1 = sequential; results are identical either way)")
	fs.StringVar(&o.arch, "arch", "pascal", "architecture preset: pascal, volta")
	fs.StringVar(&o.policy, "policy", "adaptive", "migration policy: disabled, always, oversub, adaptive")
	fs.Uint64Var(&o.ts, "ts", 8, "static access counter threshold")
	fs.Uint64Var(&o.penalty, "p", 8, "multiplicative migration penalty")
	fs.StringVar(&o.replacement, "replacement", "", "override replacement policy: lru, lfu (default: paper pairing)")
	fs.StringVar(&o.prefetcher, "prefetcher", "tree", "prefetcher: tree, none, sequential")
	fs.StringVar(&o.granularity, "granularity", "2m", "eviction granularity: 2m, 64k")
	fs.StringVar(&o.planner, "planner", "", "migration planner: "+strings.Join(mm.PlannerNames(), ", ")+" (default: threshold)")
	fs.StringVar(&o.evictor, "evictor", "", "eviction engine: "+strings.Join(mm.EvictorNames(), ", ")+" (default: configured replacement)")
	fs.StringVar(&o.batcher, "batcher", "", "fault batcher: "+strings.Join(mm.BatcherNames(), ", ")+" (default: accumulate)")
	fs.StringVar(&o.pfgov, "pf-governor", "", "prefetch governor: "+strings.Join(mm.PrefetchGovernorNames(), ", ")+" (default: the -prefetcher kind)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the learned pipeline stages (runs with equal seeds are byte-identical)")
	fs.Uint64Var(&o.banditEpsilon, "bandit-epsilon", 10, "bandit exploration probability in percent (0 = never explore)")
	fs.Uint64Var(&o.banditEpoch, "bandit-epoch", 0, "bandit learning epoch in simulated cycles (0 = built-in default)")
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
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "write the observability metric registry to this file as JSON")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a cycle-stamped timeline trace to this file (.jsonl = compact JSONL, otherwise Chrome trace_event JSON)")
	fs.Uint64Var(&o.traceSample, "trace-sample", 1, "keep one of every N trace spans (with -trace-out; 1 = all)")
	fs.Uint64Var(&o.checkInvariants, "check-invariants", 0, "run the cross-component invariant checker every N cycles (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := simulate(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "uvmsim:", err)
		return 2
	}
	return 0
}

// simulate validates the options, runs the workload and writes every
// requested output.
func simulate(o options, stdout, stderr io.Writer) (err error) {
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
	if o.gpus < 1 {
		return fmt.Errorf("-gpus must be at least 1, got %d", o.gpus)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if o.tenants != "" {
		return simulateColocation(o, stdout, stderr)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-cxl-pool-mb", o.cxlPoolMB != 0},
		{"-cxl-bw", o.cxlBW != 0},
		{"-cxl-latency", o.cxlLatency != 0},
		{"-cxl-threshold", o.cxlThreshold != 0},
		{"-pool-policy", o.poolPolicy != ""},
		{"-colo-epochs", o.coloEpochs != 0},
	} {
		if f.set {
			return fmt.Errorf("%s applies to the co-location mode only (set -tenants)", f.name)
		}
	}
	if o.gpus > 1 && (o.spans || o.jsonOut != "") {
		return fmt.Errorf("-spans and -json apply to single-GPU runs only (got -gpus %d)", o.gpus)
	}
	if o.banditEpsilon > 100 {
		return fmt.Errorf("-bandit-epsilon is a percentage, got %d (want 0-100)", o.banditEpsilon)
	}
	cfg = cfg.WithPolicy(pol)
	cfg.StaticThreshold = o.ts
	cfg.Penalty = o.penalty
	if rp, ok, err := cliutil.ParseReplacement(o.replacement); err != nil {
		return err
	} else if ok {
		cfg.Replacement = rp
	}
	if cfg.Prefetcher, err = cliutil.ParsePrefetcher(o.prefetcher); err != nil {
		return err
	}
	if cfg.EvictionGranularity, err = cliutil.ParseGranularity(o.granularity); err != nil {
		return err
	}
	if cfg.MMPipeline.Planner, err = cliutil.ParseComponentName("planner", o.planner, mm.PlannerNames()); err != nil {
		return err
	}
	if cfg.MMPipeline.Evictor, err = cliutil.ParseComponentName("evictor", o.evictor, mm.EvictorNames()); err != nil {
		return err
	}
	if cfg.MMPipeline.Batcher, err = cliutil.ParseComponentName("batcher", o.batcher, mm.BatcherNames()); err != nil {
		return err
	}
	if cfg.MMPipeline.Prefetcher, err = cliutil.ParseComponentName("prefetch governor", o.pfgov, mm.PrefetchGovernorNames()); err != nil {
		return err
	}
	cfg.PolicySeed = o.seed
	cfg.BanditEpsilonPct = o.banditEpsilon
	cfg.BanditEpochCycles = o.banditEpoch

	known := false
	for _, w := range uvmsim.AllWorkloads() {
		if w == o.workload {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(uvmsim.AllWorkloads(), ", "))
	}
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

	// Open every output file before the simulation runs, so an
	// unwritable path fails in milliseconds rather than after minutes of
	// simulated work.
	outs := make(map[string]*os.File)
	defer func() {
		//simlint:allow maporder -- closing output files; order cannot reach results
		for _, f := range outs {
			f.Close()
		}
	}()
	for _, path := range []string{o.jsonOut, o.metricsJSON, o.traceOut} {
		if path == "" || outs[path] != nil {
			continue
		}
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		outs[path] = f
	}

	class := "irregular"
	if b.Regular {
		class = "regular"
	}
	fmt.Fprintf(stdout, "workload=%s (%s) ws=%s capacity=%s policy=%v ts=%d p=%d replacement=%v prefetcher=%v\n",
		b.Name, class, memunits.HumanBytes(b.WorkingSet()),
		memunits.HumanBytes(cfg.DeviceMemBytes), cfg.Policy, cfg.StaticThreshold,
		cfg.Penalty, cfg.Replacement, cfg.Prefetcher)

	suite := obs.NewSuite(obs.Options{
		Metrics:     o.metricsJSON != "",
		Trace:       o.traceOut != "",
		TraceSample: o.traceSample,
		CheckEvery:  o.checkInvariants,
	})
	runName := fmt.Sprintf("%s/%v/%d%%", b.Name, cfg.Policy, o.oversub)

	if o.gpus > 1 {
		if err := simulateCluster(o, b, cfg, suite, runName, stdout); err != nil {
			return err
		}
	} else {
		s := uvmsim.New(b, cfg)
		s.Observe(suite.NewRun(runName))
		res, err := runChecked(s)
		if err != nil {
			return err
		}

		c := res.Counters
		if o.csv {
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
		} else {
			fmt.Fprintln(stdout, c.String())
		}
		if o.spans {
			for _, sp := range res.Spans {
				fmt.Fprintf(stdout, "kernel %-24s iter %2d  [%12d .. %12d]  %d cycles\n",
					sp.Name, sp.Iter, sp.Start, sp.End, sp.End-sp.Start)
			}
		}
		if o.jsonOut != "" {
			rec := resultio.FromResult(res, o.scale, o.oversub)
			if o.metricsJSON != "" {
				snap := suite.Collect()
				rec.Metrics = &snap.Runs[0]
			}
			if err := resultio.Write(outs[o.jsonOut], rec); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", o.jsonOut)
		}
	}
	if o.metricsJSON != "" {
		if err := suite.WriteMetricsJSON(outs[o.metricsJSON]); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", o.metricsJSON)
	}
	if o.traceOut != "" {
		if strings.HasSuffix(o.traceOut, ".jsonl") {
			err = suite.WriteTraceJSONL(outs[o.traceOut])
		} else {
			err = suite.WriteChromeTrace(outs[o.traceOut])
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", o.traceOut)
	}
	return nil
}

// simulateCluster runs the workload bulk-synchronously across o.gpus
// GPUs — sequentially, or under the conservative-PDES coordinator when
// -workers > 1 (the two modes produce byte-identical results) — and
// prints the aggregate makespan plus per-GPU metrics.
func simulateCluster(o options, b *uvmsim.Workload, cfg uvmsim.Config, suite *obs.Suite, runName string, stdout io.Writer) error {
	cl := uvmsim.NewCluster(b, cfg, o.gpus)
	cl.Observe(func(idx int) *obs.Run {
		return suite.NewRun(fmt.Sprintf("%s/gpu%d", runName, idx))
	})
	res, err := runClusterChecked(cl)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster gpus=%d workers=%d makespan=%d thrashed_pages=%d remote_accesses=%d\n",
		o.gpus, cl.Workers(), res.Cycles, res.TotalThrashedPages(), res.TotalRemoteAccesses())
	if o.csv {
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
	} else {
		for i := range res.PerGPU {
			fmt.Fprintf(stdout, "gpu%d: %s\n", i, res.PerGPU[i].String())
		}
	}
	return nil
}

// runClusterChecked mirrors runChecked for cluster runs: an invariant
// violation from the cluster-wide sweep becomes an ordinary error.
func runClusterChecked(cl *uvmsim.Cluster) (res *uvmsim.ClusterResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*obs.Violation); ok {
				res, err = nil, v
				return
			}
			panic(r)
		}
	}()
	return cl.Run(), nil
}

// runChecked runs the simulation, converting an invariant-checker
// violation (a fail-fast panic carrying a cycle-stamped diagnostic) into
// an ordinary error; any other panic is a bug and propagates.
func runChecked(s *uvmsim.Simulator) (res *uvmsim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*obs.Violation); ok {
				res, err = nil, v
				return
			}
			panic(r)
		}
	}()
	return s.Run(), nil
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

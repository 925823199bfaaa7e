package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// clusterCSV renders a run as CSV, one row per GPU with every counter
// field; byte equality of two renderings is the equivalence criterion
// the coordinator promises.
func clusterCSV(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan,%d\n", r.Counters.Cycles)
	for i := range r.PerGPU {
		fmt.Fprintf(&b, "gpu%d,%+v\n", i, r.PerGPU[i])
	}
	return b.String()
}

// sharedEngineRun is the reference the coordinator is checked against:
// every node on one engine, so the nodes' event streams interleave by
// (cycle, seq), drained once per kernel.
func sharedEngineRun(b *workloads.Built, cfg config.Config, nGPUs int) *Result {
	eng := sim.NewEngine()
	eng.SetEventBudget(eventBudget)
	s := &Simulator{built: b, cfg: cfg}
	for i := 0; i < nGPUs; i++ {
		drv := uvm.New(eng, cfg, b.Space)
		s.nodes = append(s.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
	}
	for _, k := range b.Kernels {
		s.launch(k)
		eng.Run()
		s.barrier(k)
	}
	res := &Result{}
	s.finish(res, eng.Now())
	return res
}

// Property: for randomized workload/scale/policy draws, every GPU count
// in 1..8 and every worker count in {1, 2, GOMAXPROCS}, the cluster
// produces byte-identical stats/CSV output to the shared-engine
// reference. The built workload is shared across all runs of a trial,
// doubling as a concurrent-sharing check under -race.
func TestClusterParallelEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	names := []string{"bfs", "ra", "sssp"}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		name := names[rng.Intn(len(names))]
		nGPUs := 1 + rng.Intn(8)
		scale := 0.04 + 0.04*rng.Float64()
		pol := config.Policies()[rng.Intn(len(config.Policies()))]
		b := workloads.MustGet(name)(scale)
		cfg := DeriveConfig(b, nGPUs, 125, pol, config.Default())
		want := clusterCSV(sharedEngineRun(b, cfg, nGPUs))
		for _, w := range workerCounts {
			pcfg := cfg
			pcfg.ClusterWorkers = w
			cl := NewCluster(b, pcfg, nGPUs)
			if got := clusterCSV(cl.Run()); got != want {
				t.Fatalf("trial %d (%s x%d scale=%.3f %v) with %d workers diverged:\n got: %s\nwant: %s",
					trial, name, nGPUs, scale, pol, w, got, want)
			}
		}
	}
}

// The independence one drain round per barrier relies on, checked with
// no goroutines: every kernel launches each node's CTA share, then the
// node engines drain one at a time in a permuted node order, and the
// coordinator's round (with nothing left to run) only aligns the
// clocks. Any cross-node influence inside a kernel would make the
// result depend on that order; instead it must match the shared-engine
// reference byte for byte.
func TestNodeOrderIndependence(t *testing.T) {
	for _, name := range []string{"bfs", "sssp", "ra"} {
		for nGPUs := 2; nGPUs <= 8; nGPUs += 3 {
			b := workloads.MustGet(name)(0.05)
			cfg := DeriveConfig(b, nGPUs, 125, config.PolicyAdaptive, config.Default())
			want := clusterCSV(sharedEngineRun(b, cfg, nGPUs))
			reversed := make([]int, nGPUs)
			rotated := make([]int, nGPUs)
			for i := range reversed {
				reversed[i] = nGPUs - 1 - i
				rotated[i] = (i + nGPUs/2) % nGPUs
			}
			for _, order := range [][]int{reversed, rotated} {
				s := NewCluster(b, cfg, nGPUs)
				var makespan sim.Cycle
				for _, k := range b.Kernels {
					s.launch(k)
					for _, i := range order {
						s.nodes[i].eng.Run()
					}
					makespan = s.co.Drain()
					s.barrier(k)
				}
				res := &Result{}
				s.finish(res, makespan)
				if got := clusterCSV(res); got != want {
					t.Fatalf("%s x%d drained in order %v diverged:\n got: %s\nwant: %s", name, nGPUs, order, got, want)
				}
			}
		}
	}
}

// Each node's engine daemon runs that node's invariant checks
// mid-kernel, not only at barriers, and a violation raised on a
// worker reaches the caller of Run as an *obs.Violation.
func TestParallelSweepRunsMidKernel(t *testing.T) {
	const nGPUs = 4
	b := workloads.MustGet("bfs")(0.05)
	cfg := DeriveConfig(b, nGPUs, 125, config.PolicyAdaptive, config.Default())
	cfg.ClusterWorkers = nGPUs
	observe := func(s *Simulator) {
		s.Observe(func(idx int) *obs.Run {
			return obs.Options{CheckEvery: 1000}.NewRun(fmt.Sprintf("gpu%d", idx))
		})
	}

	cl := NewCluster(b, cfg, nGPUs)
	observe(cl)
	midKernel := make([]int, nGPUs)
	for i, n := range cl.nodes {
		i, n := i, n
		n.ck.Add("probe", func() error {
			if n.launched && !n.finished {
				midKernel[i]++
			}
			return nil
		})
	}
	cl.Run()
	for i, m := range midKernel {
		if m == 0 {
			t.Errorf("gpu%d: no invariant sweep ran mid-kernel", i)
		}
	}

	cl = NewCluster(b, cfg, nGPUs)
	observe(cl)
	cl.nodes[2].ck.Add("always-fails", func() error { return errors.New("broken") })
	got := func() (p any) {
		defer func() { p = recover() }()
		cl.Run()
		return nil
	}()
	if v, ok := got.(*obs.Violation); !ok || v.Check != "always-fails" {
		t.Fatalf("Run panicked with %v, want the gpu2 violation", got)
	}
}

// emptyWarp is a warp program with no instructions.
type emptyWarp struct{}

func (emptyWarp) Next(*gpu.Instr) bool { return false }

// splitProbe runs one kernel of ctas single-warp CTAs on nGPUs and
// returns the result and how often each CTA's warp was instantiated.
func splitProbe(t *testing.T, ctas, nGPUs int) (*Result, map[int]int) {
	t.Helper()
	seen := make(map[int]int)
	b := &workloads.Built{
		Name:  "probe",
		Space: alloc.NewSpace(),
		Kernels: []gpu.Kernel{{
			Name: "k", CTAs: ctas, WarpsPerCTA: 1,
			NewWarp: func(cta, _ int) gpu.WarpProgram {
				seen[cta]++
				return emptyWarp{}
			},
		}},
		IterOf: []int{1},
	}
	return NewCluster(b, config.Default(), nGPUs).Run(), seen
}

func TestSplitKernelCoversAllCTAs(t *testing.T) {
	res, seen := splitProbe(t, 10, 4)
	var total uint64
	for i := range res.PerGPU {
		total += res.PerGPU[i].WarpsRetired
	}
	if total != 10 {
		t.Fatalf("split covers %d CTAs, want 10", total)
	}
	for cta := 0; cta < 10; cta++ {
		if seen[cta] != 1 {
			t.Fatalf("CTA %d instantiated %d times", cta, seen[cta])
		}
	}
}

func TestSplitKernelMoreGPUsThanCTAs(t *testing.T) {
	res, _ := splitProbe(t, 2, 8)
	var withWork int
	for i := range res.PerGPU {
		if res.PerGPU[i].WarpsRetired > 0 {
			withWork++
		}
	}
	if withWork != 2 {
		t.Fatalf("%d GPUs got work, want 2", withWork)
	}
}

func TestSingleGPUMatchesCoreShape(t *testing.T) {
	// A 1-GPU cluster must retire the same warp count as the workload
	// demands and produce valid stats.
	res := RunWorkload("hotspot", testScale, 1, 100, config.PolicyDisabled, config.Default())
	if res.Runtime() == 0 {
		t.Fatal("zero makespan")
	}
	if len(res.PerGPU) != 1 {
		t.Fatalf("PerGPU = %d", len(res.PerGPU))
	}
	if err := res.PerGPU[0].Validate(); err != nil {
		t.Fatal(err)
	}
	var wantWarps uint64
	for _, k := range workloads.MustGet("hotspot")(testScale).Kernels {
		wantWarps += uint64(k.CTAs * k.WarpsPerCTA)
	}
	if res.PerGPU[0].WarpsRetired != wantWarps {
		t.Fatalf("retired %d warps, want %d", res.PerGPU[0].WarpsRetired, wantWarps)
	}
}

func TestMultiGPUSplitsWork(t *testing.T) {
	single := RunWorkload("fdtd", testScale, 1, 100, config.PolicyDisabled, config.Default())
	quad := RunWorkload("fdtd", testScale, 4, 100, config.PolicyDisabled, config.Default())
	var quadWarps uint64
	for i := range quad.PerGPU {
		quadWarps += quad.PerGPU[i].WarpsRetired
		if err := quad.PerGPU[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if quadWarps != single.PerGPU[0].WarpsRetired {
		t.Fatalf("cluster retired %d warps, single %d", quadWarps, single.PerGPU[0].WarpsRetired)
	}
	// Four GPUs with proportional memory must be faster than one (the
	// compute and fault handling parallelize).
	if quad.Runtime() >= single.Runtime() {
		t.Fatalf("4 GPUs (%d cycles) not faster than 1 (%d)", quad.Runtime(), single.Runtime())
	}
}

func TestThrottlingReducesClusterThrash(t *testing.T) {
	// The future-work claim: the dynamic threshold throttles memory per
	// GPU, cutting thrash for irregular collaborative workloads.
	base := RunWorkload("ra", testScale, 2, 125, config.PolicyDisabled, config.Default())
	cfg := config.Default()
	cfg.Penalty = 8
	adpt := RunWorkload("ra", testScale, 2, 125, config.PolicyAdaptive, cfg)
	if base.TotalThrashedPages() == 0 {
		t.Fatal("baseline cluster did not thrash; scale too small")
	}
	if adpt.TotalThrashedPages() >= base.TotalThrashedPages() {
		t.Fatalf("Adaptive cluster thrash %d not below baseline %d",
			adpt.TotalThrashedPages(), base.TotalThrashedPages())
	}
	if adpt.Runtime() >= base.Runtime() {
		t.Fatalf("Adaptive cluster (%d) not faster than baseline (%d)", adpt.Runtime(), base.Runtime())
	}
	if adpt.TotalRemoteAccesses() == 0 {
		t.Fatal("Adaptive cluster performed no remote accesses")
	}
}

func TestNewClusterValidation(t *testing.T) {
	b := workloads.MustGet("backprop")(0.05)
	for _, n := range []int{0, MaxGPUs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d GPUs did not panic", n)
				}
			}()
			NewCluster(b, config.Default(), n)
		}()
	}
	if got := len(NewCluster(b, config.Default(), MaxGPUs).Run().PerGPU); got != MaxGPUs {
		t.Errorf("a %d-GPU cluster has %d nodes", MaxGPUs, got)
	}
}

// The cluster-wide engine metrics (sim.cycles, sim.events_fired) and the
// invariant-sweep machinery must not depend on the worker count: one
// worker and N workers fire the same events and stop on the same
// barrier clock, and both publish the coordinator's pdes.* metrics.
func TestParallelObservabilityMatchesSequential(t *testing.T) {
	const nGPUs = 4
	b := workloads.MustGet("ra")(testScale)
	cfg := DeriveConfig(b, nGPUs, 125, config.PolicyAdaptive, config.Default())

	collect := func(workers int) (map[string]uint64, *Result) {
		c := cfg
		c.ClusterWorkers = workers
		cl := NewCluster(b, c, nGPUs)
		runs := make([]*obs.Run, 0, nGPUs)
		cl.Observe(func(idx int) *obs.Run {
			r := obs.Options{Metrics: true, CheckEvery: 50_000}.NewRun(fmt.Sprintf("gpu%d", idx))
			runs = append(runs, r)
			return r
		})
		res := cl.Run()
		snap := runs[0].Collect()
		return snap.Counters, res
	}

	seq, seqRes := collect(1)
	par, parRes := collect(nGPUs)
	if !reflect.DeepEqual(seqRes.PerGPU, parRes.PerGPU) || !reflect.DeepEqual(seqRes.Spans, parRes.Spans) {
		t.Fatalf("observed runs diverged:\n%+v\n%+v", seqRes, parRes)
	}
	for _, key := range []string{"sim.cycles", "sim.events_fired"} {
		if seq[key] != par[key] {
			t.Errorf("%s: one worker %d, %d workers %d", key, seq[key], nGPUs, par[key])
		}
	}
	for _, run := range []struct {
		workers int
		got     map[string]uint64
	}{{1, seq}, {nGPUs, par}} {
		workers, got := run.workers, run.got
		if got[obs.MetricPDESWorkers] != uint64(workers) {
			t.Errorf("%d workers: %s = %d", workers, obs.MetricPDESWorkers, got[obs.MetricPDESWorkers])
		}
		// One drain round per kernel barrier.
		if got[obs.MetricPDESSteps] != uint64(len(b.Kernels)) {
			t.Errorf("%d workers: %s = %d, want the kernel count %d",
				workers, obs.MetricPDESSteps, got[obs.MetricPDESSteps], len(b.Kernels))
		}
	}
}

// ClusterWorkers plumbing: 0 and 1 mean one worker, larger values clamp
// to the cluster size, so Workers() always lies in [1, nGPUs].
func TestClusterWorkerSelection(t *testing.T) {
	b := workloads.MustGet("bfs")(0.05)
	cfg := DeriveConfig(b, 2, 125, config.PolicyDisabled, config.Default())
	cases := []struct {
		workers, gpus, want int
	}{
		{0, 2, 1},
		{1, 2, 1},
		{2, 2, 2},
		{8, 2, 2}, // clamped to cluster size
		{4, 1, 1},
		{0, 1, 1},
	}
	for _, tc := range cases {
		c := cfg
		c.ClusterWorkers = tc.workers
		if got := NewCluster(b, c, tc.gpus).Workers(); got != tc.want {
			t.Errorf("ClusterWorkers=%d over %d GPUs: Workers() = %d, want %d",
				tc.workers, tc.gpus, got, tc.want)
		}
	}
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		c := cfg
		c.ClusterWorkers = -1
		NewCluster(b, c, 2)
		return nil
	}(); err == nil {
		t.Error("negative ClusterWorkers did not fail validation")
	}
}

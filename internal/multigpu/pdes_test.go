package multigpu

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// clusterCSV renders a cluster result as CSV, one row per GPU with every
// counter field; byte equality of two renderings is the equivalence
// criterion the coordinator promises.
func clusterCSV(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan,%d\n", r.Cycles)
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
	c := &Cluster{built: b, cfg: cfg}
	for i := 0; i < nGPUs; i++ {
		drv := uvm.New(eng, cfg, b.Space)
		c.nodes = append(c.nodes, &node{eng: eng, drv: drv, g: gpu.New(eng, cfg, drv, drv.Stats())})
	}
	for _, k := range b.Kernels {
		c.launch(k)
		eng.Run()
		c.barrier(k)
	}
	return c.finish(eng.Now())
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
		b, cfg := core.PrepareWorkload(name, scale, nGPUs, 125, pol, config.Default())
		want := clusterCSV(sharedEngineRun(b, cfg, nGPUs))
		for _, w := range workerCounts {
			pcfg := cfg
			pcfg.ClusterWorkers = w
			cl := New(b, pcfg, nGPUs)
			if got := clusterCSV(cl.Run()); got != want {
				t.Fatalf("trial %d (%s x%d scale=%.3f %v) with %d workers diverged:\n got: %s\nwant: %s",
					trial, name, nGPUs, scale, pol, w, got, want)
			}
		}
	}
}

// The cluster-wide engine metrics (sim.cycles, sim.events_fired) and the
// invariant-sweep machinery must not depend on the worker count: one
// worker and N workers fire the same events and stop on the same
// barrier clock, and both publish the coordinator's pdes.* metrics.
func TestParallelObservabilityMatchesSequential(t *testing.T) {
	const nGPUs = 4
	b, cfg := core.PrepareWorkload("ra", testScale, nGPUs, 125, config.PolicyAdaptive, config.Default())

	collect := func(workers int) (map[string]uint64, *Result) {
		c := cfg
		c.ClusterWorkers = workers
		cl := New(b, c, nGPUs)
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
	if clusterCSV(seqRes) != clusterCSV(parRes) {
		t.Fatalf("observed runs diverged:\n%s\n%s", clusterCSV(seqRes), clusterCSV(parRes))
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
	b, cfg := core.PrepareWorkload("bfs", 0.05, 2, 125, config.PolicyDisabled, config.Default())
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
		if got := New(b, c, tc.gpus).Workers(); got != tc.want {
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
		New(b, c, 2)
		return nil
	}(); err == nil {
		t.Error("negative ClusterWorkers did not fail validation")
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
			b, cfg := core.PrepareWorkload(name, 0.05, nGPUs, 125, config.PolicyAdaptive, config.Default())
			want := clusterCSV(sharedEngineRun(b, cfg, nGPUs))
			reversed := make([]int, nGPUs)
			rotated := make([]int, nGPUs)
			for i := range reversed {
				reversed[i] = nGPUs - 1 - i
				rotated[i] = (i + nGPUs/2) % nGPUs
			}
			for _, order := range [][]int{reversed, rotated} {
				cl := New(b, cfg, nGPUs)
				for _, k := range b.Kernels {
					cl.launch(k)
					for _, i := range order {
						cl.nodes[i].eng.Run()
					}
					cl.par.Drain()
					cl.barrier(k)
				}
				if got := clusterCSV(cl.finish(sim.Cycle(cl.clusterNow()))); got != want {
					t.Fatalf("%s x%d drained in order %v diverged:\n got: %s\nwant: %s", name, nGPUs, order, got, want)
				}
			}
		}
	}
}

// A panic inside one engine's drain must not kill the process from a
// worker goroutine: the other engines finish the round, and Drain
// re-panics the value from the lowest panicking engine index on the
// caller's goroutine, leaving no goroutine behind. One worker drains
// every engine on the caller and starts no goroutine at all.
func TestDrainPanicReachesCaller(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, workers := range []int{1, 2} {
		baseline := runtime.NumGoroutine()
		engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
		inDrain := -1
		engines[0].At(10, func() {})
		engines[0].At(20, func() { inDrain = runtime.NumGoroutine() })
		engines[1].At(5, func() { panic(sentinel) })
		engines[2].At(1, func() { panic("later engine") })
		co := NewCoordinator(engines, workers)
		got := func() (p any) {
			defer func() { p = recover() }()
			co.Drain()
			return nil
		}()
		if got != sentinel {
			t.Fatalf("%d workers: Drain panicked with %v, want the sentinel from engine 1", workers, got)
		}
		// Engine 0 ran to empty, and engine 2 ran into its own panic even
		// after engine 1 (drained before it on one worker) had panicked.
		if engines[0].Now() != 20 || engines[0].Pending() != 0 || engines[2].Now() != 1 {
			t.Fatalf("%d workers: engines did not finish the round: engine 0 at %d with %d pending, engine 2 at %d",
				workers, engines[0].Now(), engines[0].Pending(), engines[2].Now())
		}
		if workers == 1 && inDrain != baseline {
			t.Fatalf("one worker: %d goroutines during Drain, baseline %d", inDrain, baseline)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d goroutines after Drain, baseline %d", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// A clean round leaves every engine empty with its clock on the barrier,
// the latest engine clock, which Drain returns — also for an engine
// that had nothing to run.
func TestDrainAlignsClocks(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
		engines[0].At(10, func() {})
		engines[1].At(40, func() {})
		co := NewCoordinator(engines, workers)
		if got := co.Drain(); got != 40 {
			t.Fatalf("%d workers: Drain returned %d, want 40", workers, got)
		}
		for i, e := range engines {
			if e.Now() != 40 || e.Pending() != 0 {
				t.Fatalf("%d workers: engine %d at %d with %d pending, want 40 and 0", workers, i, e.Now(), e.Pending())
			}
		}
	}
}

// Each node's engine daemon runs that node's invariant checks
// mid-kernel, not only at barriers, and a violation raised on a
// worker reaches the caller of Run as an *obs.Violation.
func TestParallelSweepRunsMidKernel(t *testing.T) {
	const nGPUs = 4
	b, cfg := core.PrepareWorkload("bfs", 0.05, nGPUs, 125, config.PolicyAdaptive, config.Default())
	cfg.ClusterWorkers = nGPUs
	observe := func(cl *Cluster) {
		cl.Observe(func(idx int) *obs.Run {
			return obs.Options{CheckEvery: 1000}.NewRun(fmt.Sprintf("gpu%d", idx))
		})
	}

	cl := New(b, cfg, nGPUs)
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

	cl = New(b, cfg, nGPUs)
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

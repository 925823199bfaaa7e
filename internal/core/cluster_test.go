package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

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
		b, cfg := PrepareWorkload(name, scale, nGPUs, 125, pol, config.Default())
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
			b, cfg := PrepareWorkload(name, 0.05, nGPUs, 125, config.PolicyAdaptive, config.Default())
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
	b, cfg := PrepareWorkload("bfs", 0.05, nGPUs, 125, config.PolicyAdaptive, config.Default())
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

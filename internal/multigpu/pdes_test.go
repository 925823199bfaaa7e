package multigpu

import (
	"fmt"
	"reflect"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
)

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
	if !reflect.DeepEqual(seqRes, parRes) {
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

package workloads_test

import (
	"reflect"
	"sync"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

// The memo must hand out one Built per (name, scale) and distinct
// Builts across keys, including under concurrent first requests.
func TestMemoCachesPerNameAndScale(t *testing.T) {
	m := workloads.NewMemo()
	const workers = 8
	got := make([]*workloads.Built, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Get("bfs", 0.05)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatalf("concurrent Get built %d distinct instances", workers)
		}
	}
	if m.Get("bfs", 0.1) == got[0] {
		t.Fatal("different scale returned the same Built")
	}
	if m.Get("ra", 0.05) == got[0] {
		t.Fatal("different workload returned the same Built")
	}
	if n := m.Len(); n != 3 {
		t.Fatalf("memo holds %d builds, want 3", n)
	}
}

// Proof that concurrent cells can share one memoized Built safely: N
// simulations over the same instance, run under -race in CI, must all
// produce the counters a private build produces. A Built is immutable
// after construction, so sharing cannot change results.
func TestMemoSharedBuiltConcurrentRuns(t *testing.T) {
	const runs = 4
	b := workloads.NewMemo().Get("sssp", 0.05)
	cfg := core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, config.Default())
	results := make([]*core.Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = core.Run(b, cfg)
		}(i)
	}
	wg.Wait()
	private := core.Run(workloads.MustGet("sssp")(0.05), cfg)
	for i, r := range results {
		if !reflect.DeepEqual(r.Counters, private.Counters) {
			t.Errorf("shared run %d diverged from private build:\nshared:  %+v\nprivate: %+v",
				i, r.Counters, private.Counters)
		}
	}
}

// A two-worker sweep over one memoized Built: both workers' GPUs draw
// warp programs from and release them to the same recycling pools
// while they run the Built's kernels side by side. Every cell must
// report the counters of a sequential run on a private build.
func TestRecycledProgramsSharedBuiltSweep(t *testing.T) {
	memo := workloads.NewMemo()
	var jobs []func() *core.Result
	var cfgs []config.Config
	for _, name := range []string{"bfs", "nw"} {
		b := memo.Get(name, 0.05)
		for _, pol := range config.Policies() {
			cfg := core.DeriveConfig(b, 1, 125, pol, config.Default())
			cfgs = append(cfgs, cfg)
			jobs = append(jobs, func() *core.Result { return core.Run(b, cfg) })
		}
	}
	results := sweep.Parallel(jobs, 2)
	for i, name := range []string{"bfs", "nw"} {
		private := workloads.MustGet(name)(0.05)
		for j := range config.Policies() {
			cell := i*len(config.Policies()) + j
			want := core.Run(private, cfgs[cell])
			if !reflect.DeepEqual(results[cell].Counters, want.Counters) {
				t.Errorf("%s cell %d: shared-Built sweep diverged from a private run:\nsweep:   %+v\nprivate: %+v",
					name, j, results[cell].Counters, want.Counters)
			}
		}
	}
}

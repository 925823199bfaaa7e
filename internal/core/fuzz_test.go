package core

import (
	"fmt"
	"reflect"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/workloads"
)

// FuzzRun drives the simulation loop over fuzzed configurations —
// workload, scale in [0.02, 0.06], 100/125/150% oversubscription,
// policy, 1-4 GPUs, static threshold ts in [1, 32], penalty p in
// [1, 16], and the default or any listed planner and evictor — on
// one and on two drain workers, with the invariant sweep on every GPU.
// Every GPU's counters must validate, the retired warps must add up to
// the workload's CTAs times warps, and both worker counts must give the
// same counters and spans. The seeds cover every workload, policy,
// oversubscription, GPU count, planner and evictor.
func FuzzRun(f *testing.F) {
	// ts=8 and p=8 with the default pipeline: the paper's Fig. 6 setting.
	f.Add(uint8(0), uint8(255), uint8(1), uint8(3), uint8(0), uint8(7), uint8(7), uint8(0), uint8(0)) // backprop, 1 GPU
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(1), uint8(7), uint8(7), uint8(0), uint8(0))   // fdtd, 2 GPUs
	f.Add(uint8(2), uint8(128), uint8(0), uint8(1), uint8(2), uint8(7), uint8(7), uint8(0), uint8(0)) // hotspot, 3 GPUs
	f.Add(uint8(3), uint8(64), uint8(1), uint8(2), uint8(3), uint8(7), uint8(7), uint8(0), uint8(0))  // srad, 4 GPUs
	f.Add(uint8(4), uint8(255), uint8(1), uint8(3), uint8(1), uint8(7), uint8(7), uint8(0), uint8(0)) // bfs, 2 GPUs
	f.Add(uint8(5), uint8(128), uint8(2), uint8(1), uint8(3), uint8(7), uint8(7), uint8(0), uint8(0)) // nw, 4 GPUs
	f.Add(uint8(6), uint8(200), uint8(2), uint8(3), uint8(0), uint8(7), uint8(7), uint8(0), uint8(0)) // ra, 1 GPU
	f.Add(uint8(7), uint8(255), uint8(1), uint8(0), uint8(3), uint8(7), uint8(7), uint8(0), uint8(0)) // sssp, 4 GPUs
	// Seed i draws the i-th listed planner and evictor.
	for i := 0; i < max(len(mm.PlannerNames()), len(mm.EvictorNames())); i++ {
		f.Add(uint8(4+i), uint8(64*i), uint8(1+i), uint8(3-i), uint8(i), uint8(8*i), uint8(3*i), uint8(1+i), uint8(1+i))
	}
	f.Fuzz(func(t *testing.T, wl, scale, oversub, pol, gpus, ts, penalty, planner, evictor uint8) {
		names := workloads.Names()
		name := names[int(wl)%len(names)]
		sc := 0.02 + 0.04*float64(scale)/255
		pct := []uint64{100, 125, 150}[oversub%3]
		policy := config.Policies()[int(pol)%len(config.Policies())]
		n := 1 + int(gpus%4)
		planners := append([]string{""}, mm.PlannerNames()...)
		evictors := append([]string{""}, mm.EvictorNames()...)
		base := config.Default()
		base.StaticThreshold = 1 + uint64(ts%32)
		base.Penalty = 1 + uint64(penalty%16)
		base.MMPipeline.Planner = planners[int(planner)%len(planners)]
		base.MMPipeline.Evictor = evictors[int(evictor)%len(evictors)]
		b := workloads.MustGet(name)(sc)
		cfg := DeriveConfig(b, n, pct, policy, base)
		var wantWarps uint64
		for _, k := range b.Kernels {
			wantWarps += uint64(k.CTAs * k.WarpsPerCTA)
		}
		cell := fmt.Sprintf("%s x%d scale=%.3f %d%% %v ts=%d p=%d pipeline=%q", name, n, sc, pct, policy,
			cfg.StaticThreshold, cfg.Penalty, cfg.MMPipeline.Tag())

		var first *Result
		for _, workers := range []int{1, 2} {
			cfg.ClusterWorkers = workers
			s := NewCluster(b, cfg, n)
			s.Observe(func(int) *obs.Run { return &obs.Run{CheckEvery: 2_000} })
			sweeps := countSweeps(s)
			res := s.Run()
			if sweeps.Load() == 0 {
				t.Fatalf("%s, %d workers: invariant sweep never fired", cell, workers)
			}
			var warps uint64
			for i := range res.PerGPU {
				if err := res.PerGPU[i].Validate(); err != nil {
					t.Fatalf("%s, %d workers: gpu%d: %v", cell, workers, i, err)
				}
				warps += res.PerGPU[i].WarpsRetired
			}
			if warps != wantWarps {
				t.Fatalf("%s, %d workers: retired %d warps, want %d", cell, workers, warps, wantWarps)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res.PerGPU, first.PerGPU) || !reflect.DeepEqual(res.Spans, first.Spans) {
				t.Fatalf("%s: two workers diverged from one:\n got: %+v\nwant: %+v", cell, res.PerGPU, first.PerGPU)
			}
		}
	})
}

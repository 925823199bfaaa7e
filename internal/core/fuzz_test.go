package core

import (
	"reflect"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/obs"
	"uvmsim/internal/workloads"
)

// FuzzRun drives the simulation loop over fuzzed configurations —
// workload, scale in [0.02, 0.06], 100/125/150% oversubscription,
// policy, 1-4 GPUs — on one and on two drain workers, with the
// invariant sweep on every GPU. Every GPU's counters must validate,
// the retired warps must add up to the workload's CTAs times warps, and
// both worker counts must give the same counters and spans. The seeds
// cover every workload, policy, oversubscription and GPU count.
func FuzzRun(f *testing.F) {
	f.Add(uint8(0), uint8(255), uint8(1), uint8(3), uint8(0)) // backprop, 1 GPU
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(1))   // fdtd, 2 GPUs
	f.Add(uint8(2), uint8(128), uint8(0), uint8(1), uint8(2)) // hotspot, 3 GPUs
	f.Add(uint8(3), uint8(64), uint8(1), uint8(2), uint8(3))  // srad, 4 GPUs
	f.Add(uint8(4), uint8(255), uint8(1), uint8(3), uint8(1)) // bfs, 2 GPUs
	f.Add(uint8(5), uint8(128), uint8(2), uint8(1), uint8(3)) // nw, 4 GPUs
	f.Add(uint8(6), uint8(200), uint8(2), uint8(3), uint8(0)) // ra, 1 GPU
	f.Add(uint8(7), uint8(255), uint8(1), uint8(0), uint8(3)) // sssp, 4 GPUs
	f.Fuzz(func(t *testing.T, wl, scale, oversub, pol, gpus uint8) {
		names := workloads.Names()
		name := names[int(wl)%len(names)]
		sc := 0.02 + 0.04*float64(scale)/255
		pct := []uint64{100, 125, 150}[oversub%3]
		policy := config.Policies()[int(pol)%len(config.Policies())]
		n := 1 + int(gpus%4)
		base := config.Default()
		base.Penalty = 8
		b, cfg := PrepareWorkload(name, sc, n, pct, policy, base)
		var wantWarps uint64
		for _, k := range b.Kernels {
			wantWarps += uint64(k.CTAs * k.WarpsPerCTA)
		}

		var first *Result
		for _, workers := range []int{1, 2} {
			cfg.ClusterWorkers = workers
			s := NewCluster(b, cfg, n)
			s.Observe(func(int) *obs.Run { return &obs.Run{CheckEvery: 2_000} })
			res := s.Run()
			if s.InvariantChecks() == 0 {
				t.Fatalf("%s x%d scale=%.3f %d%% %v, %d workers: invariant sweep never fired", name, n, sc, pct, policy, workers)
			}
			var warps uint64
			for i := range res.PerGPU {
				if err := res.PerGPU[i].Validate(); err != nil {
					t.Fatalf("%s x%d scale=%.3f %d%% %v, %d workers: gpu%d: %v", name, n, sc, pct, policy, workers, i, err)
				}
				warps += res.PerGPU[i].WarpsRetired
			}
			if warps != wantWarps {
				t.Fatalf("%s x%d scale=%.3f %d%% %v, %d workers: retired %d warps, want %d", name, n, sc, pct, policy, workers, warps, wantWarps)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res.PerGPU, first.PerGPU) || !reflect.DeepEqual(res.Spans, first.Spans) {
				t.Fatalf("%s x%d scale=%.3f %d%% %v: two workers diverged from one:\n got: %+v\nwant: %+v", name, n, sc, pct, policy, res.PerGPU, first.PerGPU)
			}
		}
	})
}

// Multi-GPU throttling: the paper's proposed future work (§VIII) —
// running a collaborative irregular workload across a GPU cluster and
// using the dynamic-threshold heuristic to throttle each GPU's memory
// and cut thrashing.
//
// Each kernel is split into contiguous CTA ranges across the GPUs
// (bulk-synchronous execution); every GPU has its own device memory and
// PCIe link, and its Adaptive threshold responds to local occupancy.
//
// -cluster-workers N drains each cluster's per-GPU engines on N threads
// (DESIGN.md §12); the results are byte-identical for every N, only
// wall clock changes.
//
//	go run ./examples/multigpu-throttling [-workload ra] [-oversub 125] [-cluster-workers 4]
package main

import (
	"flag"
	"fmt"

	"uvmsim"
)

func main() {
	workload := flag.String("workload", "ra", "collaborative workload")
	oversub := flag.Uint64("oversub", 125, "per-GPU working-set share as % of per-GPU memory")
	scale := flag.Float64("scale", 0.4, "workload scale factor")
	clusterWorkers := flag.Int("cluster-workers", 0, "drain threads per cluster run (0 or 1 = one, at most the GPU count; results are identical for every count)")
	flag.Parse()

	fmt.Printf("=== %s across GPU clusters at %d%% per-GPU oversubscription ===\n\n", *workload, *oversub)
	fmt.Printf("%5s %10s %16s %14s %14s %14s\n",
		"GPUs", "policy", "makespanCycles", "thrashedPages", "remoteAccesses", "speedup")

	for _, n := range []int{1, 2, 4} {
		var baseCycles uint64
		for _, pol := range []uvmsim.MigrationPolicy{uvmsim.PolicyDisabled, uvmsim.PolicyAdaptive} {
			cfg := uvmsim.DefaultConfig()
			cfg.Penalty = 8
			cfg.ClusterWorkers = *clusterWorkers
			res := uvmsim.RunCluster(*workload, *scale, n, *oversub, pol, cfg)
			if pol == uvmsim.PolicyDisabled {
				baseCycles = res.Cycles
			}
			fmt.Printf("%5d %10v %16d %14d %14d %13.2fx\n",
				n, pol, res.Cycles, res.TotalThrashedPages(), res.TotalRemoteAccesses(),
				float64(baseCycles)/float64(res.Cycles))
		}
	}

	fmt.Println("\nWithin every cluster size, the Adaptive threshold throttles page")
	fmt.Println("migration per GPU: cold pages stay host-pinned, thrashing collapses,")
	fmt.Println("and the collaborative makespan drops — the paper's future-work claim.")
}

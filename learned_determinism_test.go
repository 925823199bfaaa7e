package uvmsim

import (
	"fmt"
	"testing"

	"uvmsim/internal/mm"
)

// TestPipelineCombinationsDeterministic is the property test behind the
// learned-policy work: EVERY registered planner x prefetch-governor
// combination, run twice with the same seed, must produce byte-identical
// results — same simulated cycles, same fault counts, same spans. The
// matrix is enumerated from the mm registry, so a newly registered stage
// is property-tested the moment it exists. CI runs this under -race,
// where the ClusterWorkers variant below additionally drags the learned
// stages through the PDES coordinator's workers.
func TestPipelineCombinationsDeterministic(t *testing.T) {
	for _, planner := range mm.PlannerNames() {
		for _, governor := range mm.PrefetchGovernorNames() {
			t.Run(planner+"/"+governor, func(t *testing.T) {
				run := func() *Result {
					cfg := DefaultConfig()
					cfg.Penalty = 8
					cfg.MMPipeline.Planner = planner
					cfg.MMPipeline.Prefetcher = governor
					return RunWorkload("ra", 0.2, 125, PolicyAdaptive, cfg)
				}
				a, b := run(), run()
				if a.Counters != b.Counters {
					t.Fatalf("counters differ across identical runs:\n%+v\n%+v", a.Counters, b.Counters)
				}
				if len(a.Spans) != len(b.Spans) {
					t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
				}
				for i := range a.Spans {
					if a.Spans[i] != b.Spans[i] {
						t.Fatalf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
					}
				}
				if a.Runtime() == 0 || a.Counters.FarFaults == 0 {
					t.Fatalf("combination did no observable work: %+v", a.Counters)
				}
			})
		}
	}
}

// TestLearnedPipelineDeterministicInCluster repeats the determinism
// property for the learned stages inside a parallel multi-GPU cluster:
// with ClusterWorkers=2 the PDES scheduler interleaves node execution
// across threads, and the learned planners' per-driver state must stay
// isolated — any cross-driver sharing shows up as a counter diff here
// (and as a data race under -race).
func TestLearnedPipelineDeterministicInCluster(t *testing.T) {
	for _, planner := range []string{"reuse-dist", "bandit-ts"} {
		t.Run(planner, func(t *testing.T) {
			run := func(workers int) string {
				cfg := DefaultConfig()
				cfg.Penalty = 8
				cfg.ClusterWorkers = workers
				cfg.MMPipeline.Planner = planner
				cfg.MMPipeline.Prefetcher = "bandit-pf"
				res := RunCluster("ra", 0.2, 2, 125, PolicyAdaptive, cfg)
				return fmt.Sprintf("%d %+v", res.Cycles, res.PerGPU)
			}
			parallel := run(2)
			if again := run(2); again != parallel {
				t.Fatalf("parallel cluster runs differ:\n%s\n%s", parallel, again)
			}
			// One worker must agree with two — the cluster's standing
			// byte-identical equivalence claim.
			if sequential := run(0); sequential != parallel {
				t.Fatalf("one-worker and two-worker cluster runs differ:\n%s\n%s", sequential, parallel)
			}
		})
	}
}

// TestLearnedSeedSensitivity pins that PolicySeed is live end-to-end:
// a reuse-dist run under heavy oversubscription must change observable
// behaviour when only the seed changes (if it never did, the seeded
// exploration would be dead wiring).
func TestLearnedSeedSensitivity(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Penalty = 8
		cfg.PolicySeed = seed
		cfg.MMPipeline.Planner = "reuse-dist"
		return RunWorkload("ra", 0.3, 150, PolicyAdaptive, cfg).Runtime()
	}
	base := run(1)
	for seed := uint64(2); seed <= 8; seed++ {
		if run(seed) != base {
			return
		}
	}
	t.Fatal("runtime identical across seeds 1..8: PolicySeed is not reaching the learned planner")
}

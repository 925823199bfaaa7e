package cxl

import (
	"fmt"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/learn"
	"uvmsim/internal/obs"
)

func baseScenario(policy string, workers int, seed uint64) ScenarioConfig {
	cfg := config.Default()
	cfg.CXLPoolBytes = 64 << 20
	cfg.PoolPolicy = policy
	return ScenarioConfig{
		Cfg:  cfg,
		GPUs: 2,
		Tenants: []TenantSpec{
			{Workload: "bfs", GPU: 0, Priority: 1},
			{Workload: "sssp", GPU: 0, Priority: 0},
			{Workload: "backprop", GPU: 1, Priority: 1},
		},
		Seed:    seed,
		Workers: workers,
	}
}

func runScenario(t *testing.T, sc ScenarioConfig) *Result {
	t.Helper()
	s, err := NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScenarioRunsAndAccounts(t *testing.T) {
	r := runScenario(t, baseScenario("cxl-repl", 1, 7))
	if r.SimCycles == 0 || len(r.Tenants) != 3 {
		t.Fatalf("result = %+v", r)
	}
	var total uint64
	for _, tn := range r.Tenants {
		if tn.Accesses == 0 {
			t.Fatalf("tenant %s made no accesses", tn.Workload)
		}
		if tn.LocalHits+tn.PoolAccesses+tn.CrossAccess != tn.Accesses {
			t.Fatalf("tenant %s: access kinds do not sum: %+v", tn.Workload, tn)
		}
		total += tn.Accesses
	}
	if r.Replications == 0 {
		t.Fatal("read-mostly shared region produced no replications")
	}
	if r.Fairness <= 0 || r.Fairness > 1 {
		t.Fatalf("fairness = %v out of (0,1]", r.Fairness)
	}
}

// Every worker count reproduces the one-worker run; counts below 1 mean
// one worker.
func TestScenarioByteIdenticalAcrossWorkers(t *testing.T) {
	for _, policy := range []string{"cxl-repl", "cxl-migrate", "pool-remote"} {
		seq := runScenario(t, baseScenario(policy, 1, 42))
		for _, workers := range []int{-1, 0, 2} {
			par := runScenario(t, baseScenario(policy, workers, 42))
			if seq.Checksum != par.Checksum || seq.SimCycles != par.SimCycles {
				t.Fatalf("%s: one worker %d/%d != %d workers %d/%d",
					policy, seq.SimCycles, seq.Checksum, workers, par.SimCycles, par.Checksum)
			}
		}
	}
}

// TestCanonicalMixChecksums pins the canonical co-location mix (the
// benchmark's multigpu-pdes colo run: bfs:0:1,sssp:0:0,backprop:1:1 on
// 2 GPUs over a 64 MiB pool, seed 1) to its checksum under every pool
// policy, on one coordinator worker and on two. A refactor of the
// controller, its frame pools or the links must leave these unchanged.
func TestCanonicalMixChecksums(t *testing.T) {
	want := map[string]string{
		"cxl-migrate": "3ed6281111a15751",
		"cxl-repl":    "54841e0321dc4ecd",
		"pool-remote": "45c16a945e723494",
	}
	for _, policy := range []string{"cxl-migrate", "cxl-repl", "pool-remote"} {
		for _, workers := range []int{1, 2} {
			r := runScenario(t, baseScenario(policy, workers, 1))
			if got := fmt.Sprintf("%016x", r.Checksum); got != want[policy] {
				t.Errorf("%s at %d workers: checksum %s, want %s", policy, workers, got, want[policy])
			}
		}
	}
}

// TestScenarioReproducibilityProperty is the acceptance-criterion
// property test: randomized tiered scenarios are byte-reproducible —
// the same seed gives the same checksum at any worker count, repeat
// runs are identical, and the run actually depends on the seed.
func TestScenarioReproducibilityProperty(t *testing.T) {
	metaRNG := learn.NewRNG(99)
	policies := []string{"cxl-repl", "cxl-migrate", "pool-remote"}
	workloadsPool := []string{"bfs", "sssp", "ra", "nw", "backprop", "hotspot"}
	seen := make(map[uint64]int)
	for trial := 0; trial < 6; trial++ {
		seed := uint64(1000*trial + metaRNG.Intn(1000) + 1)
		gpus := 2 + metaRNG.Intn(2) // 2..3
		nTenants := 2 + metaRNG.Intn(3)
		var tenants []TenantSpec
		for i := 0; i < nTenants; i++ {
			tenants = append(tenants, TenantSpec{
				Workload: workloadsPool[metaRNG.Intn(len(workloadsPool))],
				GPU:      metaRNG.Intn(gpus),
				Priority: metaRNG.Intn(3),
				Blocks:   uint64(16 + metaRNG.Intn(64)),
			})
		}
		cfg := config.Default()
		cfg.CXLPoolBytes = 64 << 20
		cfg.PoolPolicy = policies[metaRNG.Intn(len(policies))]
		sc := ScenarioConfig{
			Cfg: cfg, GPUs: gpus, Tenants: tenants,
			SharedBlocks:     uint64(32 + metaRNG.Intn(96)),
			Epochs:           4 + metaRNG.Intn(6),
			AccessesPerEpoch: 100 + metaRNG.Intn(300),
			Seed:             seed,
		}
		seqCfg := sc
		seqCfg.Workers = 1
		parCfg := sc
		parCfg.Workers = 2
		seq1 := runScenario(t, seqCfg)
		seq2 := runScenario(t, seqCfg)
		par := runScenario(t, parCfg)
		if seq1.Checksum != seq2.Checksum {
			t.Fatalf("trial %d: repeat run diverged: %d != %d", trial, seq1.Checksum, seq2.Checksum)
		}
		if seq1.Checksum != par.Checksum {
			t.Fatalf("trial %d (%s, %d GPUs, %d tenants): workers=1 checksum %d != workers=2 %d",
				trial, cfg.PoolPolicy, gpus, nTenants, seq1.Checksum, par.Checksum)
		}
		seen[seq1.Checksum]++
	}
	if len(seen) < 2 {
		t.Fatalf("all %d randomized trials produced one checksum — seed is not reaching the run", len(seen))
	}
}

// TestReplicationBeatsNaiveMigration pins the tier's headline claim,
// which `simd -fig colo` shows per pool policy: on a co-location
// scenario with a read-mostly shared region, counter-arbitrated
// replication finishes in fewer simulated cycles than naive
// migrate-on-touch, because the naive policy ping-pongs shared blocks
// between GPUs and serves the loser over PCIe.
func TestReplicationBeatsNaiveMigration(t *testing.T) {
	repl := runScenario(t, baseScenario("cxl-repl", 1, 3))
	naive := runScenario(t, baseScenario("cxl-migrate", 1, 3))
	if repl.SimCycles >= naive.SimCycles {
		t.Fatalf("cxl-repl %d cycles not better than cxl-migrate %d", repl.SimCycles, naive.SimCycles)
	}
	if naive.Promotions == 0 || repl.Replications == 0 {
		t.Fatalf("policies not exercised: repl=%+v naive=%+v", repl, naive)
	}
}

func TestPriorityShieldsTenant(t *testing.T) {
	// Two tenants on one GPU with a tiny device tier: the
	// low-priority tenant must absorb the evictions.
	cfg := config.Default()
	cfg.CXLPoolBytes = 64 << 20
	sc := ScenarioConfig{
		Cfg:  cfg,
		GPUs: 1,
		Tenants: []TenantSpec{
			{Workload: "bfs", GPU: 0, Priority: 2, Blocks: 48},
			{Workload: "ra", GPU: 0, Priority: 0, Blocks: 48},
		},
		DeviceBlocks: 24,
		Seed:         5,
	}
	r := runScenario(t, sc)
	hi, lo := r.Tenants[0], r.Tenants[1]
	if r.Evictions == 0 {
		t.Fatal("tight device tier produced no evictions")
	}
	if hi.EvictedPages > lo.EvictedPages {
		t.Fatalf("high-priority tenant evicted more (%d) than low (%d)", hi.EvictedPages, lo.EvictedPages)
	}
}

func TestScenarioMetricsPublish(t *testing.T) {
	s, err := NewScenario(baseScenario("cxl-repl", 1, 11))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Observe(reg)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Collect()
	if snap.Counter("cxl.replications") == 0 {
		t.Fatal("cxl.replications not published")
	}
	if snap.Counter("cxl.tenant0.accesses") == 0 {
		t.Fatal("tenant counters not published")
	}
	if _, ok := snap.Gauges["cxl.fairness_jain"]; !ok {
		t.Fatal("fairness gauge not published")
	}
	if snap.Counter("cxl.link.gpu0.cxl.h2d.transfers") == 0 {
		t.Fatal("per-GPU link metrics not published")
	}
}

func TestScenarioValidation(t *testing.T) {
	good := baseScenario("cxl-repl", 1, 1)
	cases := []func(*ScenarioConfig){
		func(sc *ScenarioConfig) { sc.GPUs = 0 },
		func(sc *ScenarioConfig) { sc.GPUs = 65 },
		func(sc *ScenarioConfig) { sc.Tenants = nil },
		func(sc *ScenarioConfig) { sc.Tenants[0].Workload = "nope" },
		func(sc *ScenarioConfig) { sc.Tenants[0].GPU = 9 },
		func(sc *ScenarioConfig) { sc.Cfg.PoolPolicy = "bogus" },
	}
	for i, mut := range cases {
		sc := good
		sc.Tenants = append([]TenantSpec(nil), good.Tenants...)
		mut(&sc)
		if _, err := NewScenario(sc); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

func TestParseTenants(t *testing.T) {
	ts, err := ParseTenants("bfs:0:2,sssp:1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Workload != "bfs" || ts[0].GPU != 0 || ts[0].Priority != 2 {
		t.Fatalf("parsed %+v", ts)
	}
	if ts[1].Workload != "sssp" || ts[1].GPU != 1 || ts[1].Priority != 0 {
		t.Fatalf("parsed %+v", ts)
	}
	// Empty fields are kept, not skipped: an empty tenant ("bfs:0,,ra:0")
	// or an empty priority ("bfs:0:") is an error.
	for _, bad := range []string{"", "bfs", "bfs:9", "bfs:x", "nope:0", "bfs:0:x", "bfs:0:1:2", "bfs:0,,ra:0", "bfs:0:", ",", "bfs:0,"} {
		if _, err := ParseTenants(bad, 2); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

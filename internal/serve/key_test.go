package serve

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/workloads"
)

// The cache key must be a pure function of the cell identity: stable
// across calls, sensitive to every identity-bearing dimension, and
// insensitive to fields that cannot affect a single-GPU result.
func TestCellKeyDeterministicAndSensitive(t *testing.T) {
	b := workloads.NewMemo().Get("bfs", 0.05)
	base := config.Default()
	cfg := core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, base)

	k := CellKey("bfs", 0.05, 125, cfg)
	if k2 := CellKey("bfs", 0.05, 125, cfg); k2 != k {
		t.Fatalf("same cell hashed differently: %s vs %s", k, k2)
	}
	if len(k) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", k)
	}

	distinct := map[string]string{"base": k}
	add := func(name, key string) {
		for prev, pk := range distinct {
			if pk == key {
				t.Fatalf("%s collides with %s: %s", name, prev, key)
			}
		}
		distinct[name] = key
	}

	add("workload", CellKey("ra", 0.05, 125, cfg))
	add("scale", CellKey("bfs", 0.1, 125, cfg))
	add("policy", CellKey("bfs", 0.05, 125, core.DeriveConfig(b, 1, 125, config.PolicyDisabled, base)))
	// At tiny scales distinct percents may derive identical device
	// capacities, so this also proves the percent itself is hashed.
	add("oversub", CellKey("bfs", 0.05, 150, core.DeriveConfig(b, 1, 150, config.PolicyAdaptive, base)))

	seeded := base
	seeded.PolicySeed = 7
	add("seed", CellKey("bfs", 0.05, 125, core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, seeded)))

	piped := base
	piped.MMPipeline = config.PipelineSpec{Planner: "threshold"}
	add("pipeline", CellKey("bfs", 0.05, 125, core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, piped)))

	// ClusterWorkers tunes multi-GPU PDES execution only; single-GPU
	// cells are identical for every value, so it must not split keys.
	cw := cfg
	cw.ClusterWorkers = 8
	if CellKey("bfs", 0.05, 125, cw) != k {
		t.Fatal("ClusterWorkers split the key space")
	}
}

func TestCacheFirstWriteWins(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache returned a hit")
	}
	one := []byte("one")
	if got := c.Put("k", one); &got[0] != &one[0] {
		t.Fatal("Put of a new key did not return the stored slice it took")
	}
	// A duplicate content-addressed write is a no-op that returns the
	// first writer's bytes.
	if got := c.Put("k", []byte("two")); &got[0] != &one[0] {
		t.Fatalf("duplicate Put returned %q, not the stored entry", got)
	}
	p, ok := c.Get("k")
	if !ok || string(p) != "one" {
		t.Fatalf("got %q, %v", p, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 3 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

package uvm

import (
	"slices"
	"strings"
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
	"uvmsim/internal/workloads"
)

// newPipelineRig is newRig with one pipeline stage replaced: set edits
// the stages mm.Build resolves for the configuration — the mock seam of
// the contract tests.
func newPipelineRig(t *testing.T, mut func(*config.Config), allocBytes uint64, set func(*mm.Pipeline)) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.DeviceMemBytes = 8 << 20 // 4 chunks by default
	if mut != nil {
		mut(&cfg)
	}
	pipe, err := mm.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set(&pipe)
	eng := sim.NewEngine()
	eng.SetEventBudget(50_000_000)
	space := alloc.NewSpace()
	a := space.Alloc("data", allocBytes, false)
	return &testRig{eng: eng, d: NewWithPipeline(eng, cfg, space, pipe), space: space, a: a}
}

// touchAll issues one synchronous read to the first sector of every
// block of the rig's allocation and asserts each one completes.
func touchAll(t *testing.T, r *testRig) int {
	t.Helper()
	n := 0
	for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
		r.syncAccess(t, r.a.Base+memunits.Addr(off), false)
		n++
	}
	return n
}

// refusingEvictor is a mock EvictionEngine that never frees memory.
type refusingEvictor struct{ calls int }

func (e *refusingEvictor) Name() string                  { return "refusing-mock" }
func (e *refusingEvictor) EvictOne(mm.EvictionHost) bool { e.calls++; return false }

// The central EvictionEngine contract: an engine that refuses to evict
// must degrade stalled migrations to remote accesses — every access
// completes, the driver quiesces (PendingWork false), and the refusal
// surfaces in the remote-access counters rather than as a hang.
func TestRefusingEvictionEngineDegradesToRemote(t *testing.T) {
	ev := &refusingEvictor{}
	// 2 chunks of device memory, an 8-chunk allocation: most blocks can
	// never obtain capacity once the first two chunks fill.
	r := newPipelineRig(t, func(cfg *config.Config) {
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	}, 8*memunits.ChunkSize, func(p *mm.Pipeline) { p.Evictor = ev })

	touchAll(t, r)

	if r.d.PendingWork() {
		t.Fatal("driver did not quiesce with a refusing eviction engine")
	}
	st := r.d.Stats()
	if st.RemoteReads == 0 {
		t.Fatal("no access degraded to remote")
	}
	if st.MigratedPages == 0 {
		t.Fatal("nothing migrated before memory filled — the refusal path was never under pressure")
	}
	if st.EvictedPages != 0 {
		t.Fatalf("refusing engine evicted %d pages", st.EvictedPages)
	}
	if ev.calls == 0 {
		t.Fatal("eviction engine was never consulted")
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent state after demotion: %v", err)
	}
	// The driver must remain usable: resident blocks still serve near.
	if _, ok := r.d.TryFastAccess(r.a.Base, false); !ok {
		t.Fatal("resident block lost after demotions")
	}
}

// The by-name route to the same contract: the "none" engine selected
// purely by configuration string, without touching driver construction.
func TestRefusingEvictorByNameDegradesToRemote(t *testing.T) {
	r := newRigWithSpec(t, config.PipelineSpec{Evictor: "none"})
	touchAll(t, r)
	if r.d.PendingWork() {
		t.Fatal("driver did not quiesce")
	}
	if st := r.d.Stats(); st.RemoteReads == 0 || st.EvictedPages != 0 {
		t.Fatalf("remote=%d evicted=%d; want remote>0, evicted=0", st.RemoteReads, st.EvictedPages)
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func newRigWithSpec(t *testing.T, spec config.PipelineSpec) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	cfg.MMPipeline = spec
	eng := sim.NewEngine()
	eng.SetEventBudget(50_000_000)
	space := alloc.NewSpace()
	a := space.Alloc("data", 8*memunits.ChunkSize, false)
	return &testRig{eng: eng, d: New(eng, cfg, space), space: space, a: a}
}

// denyPlanner is a mock MigrationPlanner that never migrates.
type denyPlanner struct{}

func (denyPlanner) Name() string                 { return "deny-mock" }
func (denyPlanner) ShouldMigrate(mm.Access) bool { return false }

// The MigrationPlanner contract: the planner alone decides migrate vs
// remote — a planner that always refuses turns every access into a
// remote access and nothing ever migrates.
func TestDenyPlannerServesEverythingRemotely(t *testing.T) {
	r := newPipelineRig(t, nil, 4<<20, func(p *mm.Pipeline) { p.Planner = denyPlanner{} })
	n := touchAll(t, r)
	st := r.d.Stats()
	if st.MigratedPages != 0 || st.FarFaults != 0 {
		t.Fatalf("migrated=%d faults=%d with a deny planner", st.MigratedPages, st.FarFaults)
	}
	if st.RemoteReads != uint64(n) {
		t.Fatalf("remote reads = %d, want %d", st.RemoteReads, n)
	}
	if r.d.PendingWork() {
		t.Fatal("pending work without any migration")
	}
}

// soloGovernor is a mock PrefetchGovernor whose chunks never group
// neighbours: every fault migrates exactly its own block.
type soloGovernor struct{}

func (soloGovernor) Name() string { return "solo-mock" }
func (soloGovernor) NewChunk(nBlocks int) mm.ChunkPrefetcher {
	return prefetch.NewChunk(config.PrefetchNone, nBlocks)
}

// The PrefetchGovernor contract: migration grouping comes only from the
// governor's chunks, so a single-block governor yields zero prefetched
// pages while demand migration still works.
func TestSoloGovernorDisablesPrefetch(t *testing.T) {
	r := newPipelineRig(t, nil, 4<<20, func(p *mm.Pipeline) { p.Prefetch = soloGovernor{} })
	n := touchAll(t, r)
	st := r.d.Stats()
	if st.PrefetchedPages != 0 {
		t.Fatalf("solo governor prefetched %d pages", st.PrefetchedPages)
	}
	if st.MigratedPages != uint64(n)*memunits.PagesPerBlock {
		t.Fatalf("migrated %d pages, want %d", st.MigratedPages, uint64(n)*memunits.PagesPerBlock)
	}
}

// refaultChecker wraps the configured FaultBatcher and records every
// block the driver adds to an open round twice. The batcher keeps no
// set of its own: a block faults once per round only because the driver
// merges later accesses to a pending block into its waiter list.
type refaultChecker struct {
	mm.FaultBatcher
	round   []memunits.BlockNum
	batches int
	largest int
	refault []memunits.BlockNum
}

func (c *refaultChecker) Add(b memunits.BlockNum) bool {
	if slices.Contains(c.round, b) {
		c.refault = append(c.refault, b)
	}
	c.round = append(c.round, b)
	return c.FaultBatcher.Add(b)
}

func (c *refaultChecker) Close() []memunits.BlockNum {
	c.batches++
	c.largest = max(c.largest, len(c.round))
	c.round = c.round[:0]
	return c.FaultBatcher.Close()
}

// The FaultBatcher contract the driver keeps: no block is added twice
// to one open round. Synchronous write-heavy passes exercise batching
// one access at a time; a 150% ra cell on the GPU model keeps many warps
// faulting on the same blocks while they are pending, and thrashes.
func TestDriverNeverRefaultsPendingBlock(t *testing.T) {
	check := func(t *testing.T, c *refaultChecker) {
		t.Helper()
		if len(c.refault) > 0 {
			t.Fatalf("%d blocks added twice to one open round, first %d", len(c.refault), c.refault[0])
		}
		if c.batches == 0 {
			t.Fatal("no batch closed — the check proves nothing")
		}
	}
	wrap := func(t *testing.T, cfg config.Config) (mm.Pipeline, *refaultChecker) {
		pipe, err := mm.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := &refaultChecker{FaultBatcher: pipe.Batcher}
		pipe.Batcher = c
		return pipe, c
	}

	t.Run("write-heavy-passes", func(t *testing.T) {
		cfg := config.Default().WithPolicy(config.PolicyAdaptive)
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
		pipe, c := wrap(t, cfg)
		eng := sim.NewEngine()
		eng.SetEventBudget(50_000_000)
		space := alloc.NewSpace()
		a := space.Alloc("data", 4*memunits.ChunkSize, false)
		r := &testRig{eng: eng, d: NewWithPipeline(eng, cfg, space, pipe), space: space, a: a}
		// Write, read and write strided passes over twice the device
		// memory: fault batches with prefetch, and remote writes.
		for pass := 0; pass < 3; pass++ {
			for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
				r.syncAccess(t, r.a.Base+memunits.Addr(off), pass%2 == 0)
			}
		}
		check(t, c)
	})

	t.Run("ra-150", func(t *testing.T) {
		b := workloads.MustGet("ra")(0.3)
		cfg := config.Default().WithPolicy(config.PolicyAdaptive)
		cfg = cfg.WithOversubscription(b.WorkingSet(), 150)
		pipe, c := wrap(t, cfg)
		eng := sim.NewEngine()
		eng.SetEventBudget(200_000_000)
		d := NewWithPipeline(eng, cfg, b.Space, pipe)
		g := gpu.New(eng, cfg, d, d.Stats())
		for _, k := range b.Kernels {
			g.RunSync(k)
		}
		eng.Run()
		check(t, c)
		if d.Stats().ThrashedPages == 0 || c.largest < 2 {
			t.Fatalf("thrashed=%d largest batch=%d: the cell does not thrash or batch", d.Stats().ThrashedPages, c.largest)
		}
	})
}

// NewWithPipeline takes a complete pipeline: a missing stage panics
// with the stage's name instead of being filled in.
func TestNewWithPipelineRejectsMissingStage(t *testing.T) {
	cfg := config.Default()
	for _, tc := range []struct {
		stage string
		drop  func(*mm.Pipeline)
	}{
		{"Batcher", func(p *mm.Pipeline) { p.Batcher = nil }},
		{"Planner", func(p *mm.Pipeline) { p.Planner = nil }},
		{"Evictor", func(p *mm.Pipeline) { p.Evictor = nil }},
		{"Prefetch", func(p *mm.Pipeline) { p.Prefetch = nil }},
	} {
		pipe, err := mm.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.drop(&pipe)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.stage) {
					t.Fatalf("missing %s: recovered %q, want a panic naming it", tc.stage, msg)
				}
			}()
			NewWithPipeline(sim.NewEngine(), cfg, alloc.NewSpace(), pipe)
		}()
	}
}

// Pipeline() exposes the composed stages, and New resolves the empty
// spec to the stages the configuration selects.
func TestPipelineIntrospection(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	p := r.d.Pipeline()
	if p.Batcher == nil || p.Planner == nil || p.Evictor == nil || p.Prefetch == nil {
		t.Fatalf("incomplete pipeline: %+v", p)
	}
	if p.Planner.Name() != "threshold" {
		t.Fatalf("default planner = %q", p.Planner.Name())
	}
	// config.Default pairs no migration policy with LRU replacement.
	if p.Evictor.Name() != "LRU" {
		t.Fatalf("default evictor = %q", p.Evictor.Name())
	}
}

// The thrash-guard planner is selected by name: choosing it changes
// behaviour (chronic thrashers stop migrating)
// without any driver-core hook.
func TestThrashGuardStopsChronicThrashing(t *testing.T) {
	run := func(planner string) *runTally {
		cfg := config.Default().WithPolicy(config.PolicyDisabled)
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
		cfg.MMPipeline.Planner = planner
		eng := sim.NewEngine()
		eng.SetEventBudget(200_000_000)
		space := alloc.NewSpace()
		a := space.Alloc("data", 4*memunits.ChunkSize, false)
		r := &testRig{eng: eng, d: New(eng, cfg, space), space: space, a: a}
		// Cyclic passes over 2x capacity under first-touch: the classic
		// thrashing pattern.
		for pass := 0; pass < 6; pass++ {
			for off := uint64(0); off < r.a.Size; off += memunits.BlockSize {
				r.syncAccess(t, r.a.Base+memunits.Addr(off), false)
			}
		}
		st := r.d.Stats()
		return &runTally{thrashed: st.ThrashedPages, remote: st.RemoteReads + st.RemoteWrites}
	}
	base := run("")
	guarded := run("thrash-guard")
	if base.thrashed == 0 {
		t.Fatal("baseline did not thrash — the pattern proves nothing")
	}
	if guarded.thrashed >= base.thrashed {
		t.Fatalf("thrash-guard did not reduce thrashing: %d vs %d", guarded.thrashed, base.thrashed)
	}
	if guarded.remote == 0 {
		t.Fatal("thrash-guard never served pinned blocks remotely")
	}
}

type runTally struct{ thrashed, remote uint64 }

package mm

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
	"uvmsim/internal/policy"
	"uvmsim/internal/sim"
)

func TestDefaultsMatchConfiguration(t *testing.T) {
	cfg := config.Default()
	b, err := NewBatcher("", cfg)
	if err != nil || b.Name() != "accumulate" {
		t.Fatalf("default batcher = %v, %v; want accumulate", b, err)
	}
	p, err := NewPlanner("", cfg)
	if err != nil || p.Name() != "threshold" {
		t.Fatalf("default planner = %v, %v; want threshold", p, err)
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		cfg.Replacement = rp
		e, err := NewEvictor("", cfg)
		if err != nil || e.Name() != rp.String() {
			t.Fatalf("default evictor under %v = %v, %v", rp, e, err)
		}
	}
	g, err := NewPrefetchGovernor("", cfg)
	if err != nil || g.Name() != "tree" {
		t.Fatalf("default governor = %v, %v; want tree", g, err)
	}
}

func TestUnknownNamesError(t *testing.T) {
	cfg := config.Default()
	if _, err := NewPlanner("nope", cfg); err == nil || !strings.Contains(err.Error(), "unknown migration planner") {
		t.Fatalf("NewPlanner(nope) err = %v", err)
	}
	if _, err := NewBatcher("nope", cfg); err == nil {
		t.Fatal("NewBatcher(nope) succeeded")
	}
	if _, err := NewEvictor("nope", cfg); err == nil {
		t.Fatal("NewEvictor(nope) succeeded")
	}
	if _, err := NewPrefetchGovernor("nope", cfg); err == nil {
		t.Fatal("NewPrefetchGovernor(nope) succeeded")
	}
	// The error names the alternatives.
	_, err := NewEvictor("mru", cfg)
	for _, want := range EvictorNames() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
	// CheckSpec and Build refuse a bad name of every kind with the
	// constructor's own error.
	for _, tc := range []struct {
		spec  config.PipelineSpec
		build func() error
	}{
		{config.PipelineSpec{Batcher: "Dedup"}, func() error { _, err := NewBatcher("Dedup", cfg); return err }},
		{config.PipelineSpec{Planner: "nosuch"}, func() error { _, err := NewPlanner("nosuch", cfg); return err }},
		{config.PipelineSpec{Evictor: "mru"}, func() error { _, err := NewEvictor("mru", cfg); return err }},
		{config.PipelineSpec{Prefetcher: "oracle"}, func() error { _, err := NewPrefetchGovernor("oracle", cfg); return err }},
	} {
		want := tc.build()
		if err := CheckSpec(tc.spec); err == nil || err.Error() != want.Error() {
			t.Fatalf("CheckSpec(%+v) = %v, want %v", tc.spec, err, want)
		}
		c := cfg
		c.MMPipeline = tc.spec
		if _, err := Build(c); err == nil || err.Error() != want.Error() {
			t.Fatalf("Build(%+v) = %v, want %v", tc.spec, err, want)
		}
	}
}

// Every listed name, in any case and with surrounding space, passes
// CheckSpec and builds a stage, so the name lists and the constructors'
// switches cannot drift apart.
func TestCheckSpecAcceptsEveryListedName(t *testing.T) {
	cfg := config.Default()
	for _, tc := range []struct {
		names []string
		spec  func(string) config.PipelineSpec
		build func(string) error
	}{
		{BatcherNames(), func(n string) config.PipelineSpec { return config.PipelineSpec{Batcher: n} },
			func(n string) error { _, err := NewBatcher(n, cfg); return err }},
		{PlannerNames(), func(n string) config.PipelineSpec { return config.PipelineSpec{Planner: n} },
			func(n string) error { _, err := NewPlanner(n, cfg); return err }},
		{EvictorNames(), func(n string) config.PipelineSpec { return config.PipelineSpec{Evictor: n} },
			func(n string) error { _, err := NewEvictor(n, cfg); return err }},
		{PrefetchGovernorNames(), func(n string) config.PipelineSpec { return config.PipelineSpec{Prefetcher: n} },
			func(n string) error { _, err := NewPrefetchGovernor(n, cfg); return err }},
	} {
		for _, n := range append(tc.names, "") {
			for _, spelling := range []string{n, " " + strings.ToUpper(n) + " "} {
				if err := CheckSpec(tc.spec(spelling)); err != nil {
					t.Fatalf("CheckSpec(%q): %v", spelling, err)
				}
				if err := tc.build(spelling); err != nil {
					t.Fatalf("constructor(%q): %v", spelling, err)
				}
			}
		}
	}
	for _, n := range PoolPolicyNames() {
		if _, err := NewPoolPolicy(n, cfg); err != nil {
			t.Fatalf("NewPoolPolicy(%q): %v", n, err)
		}
	}
}

// CheckSpec runs at every job submission, so a valid spec must cost no
// allocation.
func TestCheckSpecAllocatesNothing(t *testing.T) {
	spec := config.PipelineSpec{Batcher: "accumulate", Planner: "reuse-dist", Evictor: "lfu", Prefetcher: "bandit-pf"}
	if n := testing.AllocsPerRun(100, func() {
		if CheckSpec(spec) != nil {
			t.Fatal("valid spec refused")
		}
	}); n != 0 {
		t.Fatalf("CheckSpec allocated %v times per call", n)
	}
}

func TestNamesAreCaseInsensitiveAndTrimmed(t *testing.T) {
	cfg := config.Default()
	p, err := NewPlanner(" Thrash-Guard ", cfg)
	if err != nil || p.Name() != "thrash-guard" {
		t.Fatalf("NewPlanner(' Thrash-Guard ') = %v, %v", p, err)
	}
}

// The name lists appear in CLI usage, error messages and reports, so
// each is sorted and free of duplicates.
func TestNameListsAreSorted(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		names []string
	}{
		{"batcher", BatcherNames()},
		{"planner", PlannerNames()},
		{"evictor", EvictorNames()},
		{"prefetcher", PrefetchGovernorNames()},
		{"pool policy", PoolPolicyNames()},
	} {
		if len(tc.names) == 0 {
			t.Fatalf("no %s names", tc.kind)
		}
		if !sort.StringsAreSorted(tc.names) || len(slices.Compact(slices.Clone(tc.names))) != len(tc.names) {
			t.Fatalf("%s names not sorted and distinct: %v", tc.kind, tc.names)
		}
	}
}

// TestPackageRegistriesSorted covers the package-level listings used in
// CLI error messages and reports: each call hands out its own copy, so a
// caller that reorders what it got cannot unsort the next caller's list.
func TestPackageRegistriesSorted(t *testing.T) {
	for name, names := range map[string]func() []string{
		"BatcherNames":          BatcherNames,
		"PlannerNames":          PlannerNames,
		"EvictorNames":          EvictorNames,
		"PrefetchGovernorNames": PrefetchGovernorNames,
		"PoolPolicyNames":       PoolPolicyNames,
	} {
		got := names()
		slices.Reverse(got)
		if len(got) > 0 {
			got[0] = "~scribbled"
		}
		if again := names(); !sort.StringsAreSorted(again) || slices.Contains(again, "~scribbled") {
			t.Errorf("%s() changed after a caller edited its copy: %v", name, again)
		}
	}
}

func TestBuildResolvesSpec(t *testing.T) {
	cfg := config.Default()
	cfg.MMPipeline = config.PipelineSpec{
		Batcher:    "accumulate",
		Planner:    "thrash-guard",
		Evictor:    "none",
		Prefetcher: "sequential",
	}
	pipe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Batcher.Name(); got != "accumulate" {
		t.Fatalf("batcher = %q", got)
	}
	if got := pipe.Planner.Name(); got != "thrash-guard" {
		t.Fatalf("planner = %q", got)
	}
	if got := pipe.Evictor.Name(); got != "none" {
		t.Fatalf("evictor = %q", got)
	}
	if got := pipe.Prefetch.Name(); got != "sequential" {
		t.Fatalf("prefetcher = %q", got)
	}

	cfg.MMPipeline.Planner = "bogus"
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build with unknown planner succeeded")
	}
}

func TestAccumBatcherRounds(t *testing.T) {
	b, _ := NewBatcher("accumulate", config.Default())
	if b.Open() {
		t.Fatal("fresh batcher is open")
	}
	if !b.Add(3) {
		t.Fatal("first Add did not open the round")
	}
	if b.Add(7) || b.Add(3) {
		t.Fatal("later Adds re-opened the round")
	}
	if !b.Open() {
		t.Fatal("batcher not open after Add")
	}
	got := b.Close()
	want := []memunits.BlockNum{3, 7, 3}
	if len(got) != len(want) {
		t.Fatalf("batch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v, want %v", got, want)
		}
	}
	if b.Open() {
		t.Fatal("batcher still open after Close")
	}
	if !b.Add(1) {
		t.Fatal("Add after Close did not open a new round")
	}
}

func TestThresholdPlannerWriteMigrates(t *testing.T) {
	cfg := config.Default().WithPolicy(config.PolicyAlways)
	cfg.WriteMigrates = true
	cfg.StaticThreshold = 100 // only the write path can trigger below 100
	p, _ := NewPlanner("threshold", cfg)
	a := Access{Count: 1, Mem: policy.MemState{TotalPages: 100, AllocatedPages: 0}}
	if p.ShouldMigrate(a) {
		t.Fatal("read below threshold migrated")
	}
	a.Write = true
	if !p.ShouldMigrate(a) {
		t.Fatal("write did not migrate with WriteMigrates on")
	}
}

func TestThrashGuardPinsChronicThrashers(t *testing.T) {
	// The first-touch baseline migrates on every first access, so the
	// only reason the guard returns false is the round-trip bound.
	cfg := config.Default().WithPolicy(config.PolicyDisabled)
	inner, _ := NewPlanner("threshold", cfg)
	guard, _ := NewPlanner("thrash-guard", cfg)
	a := Access{Count: 1, Mem: policy.MemState{TotalPages: 100}}
	for r := uint64(0); r < ThrashGuardRoundTrips; r++ {
		a.RoundTrips = r
		if !guard.ShouldMigrate(a) {
			t.Fatalf("guard refused below the bound (r=%d)", r)
		}
	}
	a.RoundTrips = ThrashGuardRoundTrips
	if guard.ShouldMigrate(a) {
		t.Fatal("guard migrated at the bound")
	}
	if !inner.ShouldMigrate(a) {
		t.Fatal("inner planner refused — the guard case proves nothing")
	}
}

func TestKindGovernorCreatesConfiguredKind(t *testing.T) {
	cfg := config.Default()
	g, _ := NewPrefetchGovernor("none", cfg)
	pf := g.NewChunk(32)
	leaves := pf.OnFault(5)
	if len(leaves) != 1 || leaves[0] != 5 {
		t.Fatalf("none governor prefetched: %v", leaves)
	}
	if pf.Tree() == nil {
		t.Fatal("chunk prefetcher has no tree")
	}
}

// Stage contract tests: every implementation — built-in and learned —
// must satisfy the same behavioural contract, checked table-driven over
// the name lists so a new name is tested the moment it exists.

// contractAccessSeq generates a fixed pseudo-random access sequence
// spanning enough simulated time to close several bandit epochs. The
// generator is self-contained so the sequence is identical on every
// run.
func contractAccessSeq(n int) []Access {
	s := uint64(0x123456789)
	next := func() uint64 { s ^= s << 13; s ^= s >> 7; s ^= s << 17; return s }
	seq := make([]Access, 0, n)
	var now sim.Cycle
	for i := 0; i < n; i++ {
		now += sim.Cycle(next() % 50_000)
		seq = append(seq, Access{
			Block:      memunits.BlockNum(next() % 512),
			Write:      next()%4 == 0,
			Count:      next()%64 + 1,
			RoundTrips: next() % 6,
			Mem: policy.MemState{
				AllocatedPages: next() % 1000,
				TotalPages:     1000,
				Oversubscribed: next()%2 == 0,
			},
			Now: now,
		})
	}
	return seq
}

func TestPlannerContractDeterministicReplay(t *testing.T) {
	// Two fresh instances of every planner fed the same
	// access sequence must make identical decisions — the planner-level
	// core of the repo's byte-identical determinism guarantee. The
	// sequence spans ~250M cycles so the learned planners cross many
	// epoch boundaries and exploration draws.
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	seq := contractAccessSeq(5000)
	for _, name := range PlannerNames() {
		a, err := NewPlanner(name, cfg)
		if err != nil {
			t.Fatalf("NewPlanner(%s): %v", name, err)
		}
		b, _ := NewPlanner(name, cfg)
		if a.Name() != name {
			t.Fatalf("planner %q round-trips as %q", name, a.Name())
		}
		for i, acc := range seq {
			if a.ShouldMigrate(acc) != b.ShouldMigrate(acc) {
				t.Fatalf("planner %s diverged from its twin at access %d", name, i)
			}
		}
	}
}

func TestPlannerContractSeedChangesLearnedDecisions(t *testing.T) {
	// The learned planners must actually consume the seed: two seeds
	// giving identical decision sequences over 5000 varied accesses
	// would mean the "seeded" randomness is dead code.
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	seq := contractAccessSeq(5000)
	cfg2 := cfg
	cfg2.PolicySeed = cfg.PolicySeed + 1
	p1, _ := NewPlanner("reuse-dist", cfg)
	p2, _ := NewPlanner("reuse-dist", cfg2)
	same := true
	for _, acc := range seq {
		if p1.ShouldMigrate(acc) != p2.ShouldMigrate(acc) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reuse-dist decisions identical under different seeds")
	}
}

func TestReuseDistPlannerOnlyVetoesUnderOversubscription(t *testing.T) {
	// Post-oversubscription reuse-dist is a filter on the threshold
	// decision: it must never migrate a block the static scheme would
	// keep host-side (its exploration draws only fire on
	// threshold-approved blocks).
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	rd, _ := NewPlanner("reuse-dist", cfg)
	th, _ := NewPlanner("threshold", cfg)
	for i, acc := range contractAccessSeq(5000) {
		if !acc.Mem.Oversubscribed {
			// Keep the two planners' internal state in sync: reuse-dist
			// mirrors threshold exactly before oversubscription.
			if rd.ShouldMigrate(acc) != th.ShouldMigrate(acc) {
				t.Fatalf("reuse-dist diverged from threshold pre-oversub at access %d", i)
			}
			continue
		}
		if rd.ShouldMigrate(acc) && !th.ShouldMigrate(acc) {
			t.Fatalf("reuse-dist migrated a threshold-vetoed block at access %d", i)
		}
	}
}

func TestBanditPlannerEpsilonZeroMatchesThreshold(t *testing.T) {
	// The decision-level form of the epsilon=0 golden: with exploration
	// off, bandit-ts never leaves arm 0 (the configured ts/p pair), so
	// its decisions are identical to the static threshold planner's
	// even across epoch closes.
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	cfg.BanditEpsilonPct = 0
	bp, _ := NewPlanner("bandit-ts", cfg)
	th, _ := NewPlanner("threshold", cfg)
	for i, acc := range contractAccessSeq(5000) {
		if bp.ShouldMigrate(acc) != th.ShouldMigrate(acc) {
			t.Fatalf("bandit-ts(eps=0) diverged from threshold at access %d", i)
		}
	}
}

func TestBanditArmsAnchorAndDedup(t *testing.T) {
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	arms := banditArms(cfg)
	if arms[0].ts != cfg.StaticThreshold || arms[0].p != cfg.Penalty {
		t.Fatalf("arm 0 = (%d, %d), want the configured (%d, %d)",
			arms[0].ts, arms[0].p, cfg.StaticThreshold, cfg.Penalty)
	}
	seen := map[[2]uint64]bool{}
	for _, a := range arms {
		k := [2]uint64{a.ts, a.p}
		if seen[k] {
			t.Fatalf("duplicate arm (%d, %d)", a.ts, a.p)
		}
		seen[k] = true
		if a.ts == 0 || a.p == 0 {
			t.Fatalf("arm (%d, %d) has a zero knob", a.ts, a.p)
		}
	}
	// At the degenerate corner every variant collapses toward (1, 1);
	// construction must dedup rather than panic or emit twins.
	cfg.StaticThreshold, cfg.Penalty = 1, 1
	if got := banditArms(cfg); len(got) != 4 {
		t.Fatalf("degenerate arm set has %d arms, want 4", len(got))
	}
}

// emptyHost is an EvictionHost with nothing evictable: the state of a
// driver whose resident units are all pinned or in flight.
type emptyHost struct{ evictions int }

func (h *emptyHost) ChunkCandidates(bool) []evict.Candidate { return nil }
func (h *emptyHost) BlockCandidates(bool) []evict.Candidate { return nil }
func (h *emptyHost) Evict(int, bool)                        { h.evictions++ }

func TestEvictorContractRefusesGracefullyWithoutCandidates(t *testing.T) {
	// Every engine must return false — not panic, not call Evict — when
	// both the strict and relaxed passes come up empty. The driver
	// relies on the false to demote the stalled migration to remote
	// access.
	for _, name := range EvictorNames() {
		for _, gran := range []uint64{memunits.ChunkSize, memunits.BlockSize} {
			cfg := config.Default()
			cfg.EvictionGranularity = gran
			e, err := NewEvictor(name, cfg)
			if err != nil {
				t.Fatalf("NewEvictor(%s): %v", name, err)
			}
			h := &emptyHost{}
			if e.EvictOne(h) {
				t.Fatalf("evictor %s (gran %d) claimed success with no candidates", name, gran)
			}
			if h.evictions != 0 {
				t.Fatalf("evictor %s (gran %d) called Evict with no candidates", name, gran)
			}
		}
	}
}

func TestBatcherContractEmptyCloseIsNoOp(t *testing.T) {
	for _, name := range BatcherNames() {
		b, err := NewBatcher(name, config.Default())
		if err != nil {
			t.Fatalf("NewBatcher(%s): %v", name, err)
		}
		if got := b.Close(); len(got) != 0 {
			t.Fatalf("batcher %s returned %v from an empty Close", name, got)
		}
		if b.Open() {
			t.Fatalf("batcher %s open after an empty Close", name)
		}
		// An empty Close must not have corrupted round tracking.
		if !b.Add(9) {
			t.Fatalf("batcher %s did not open a round after empty Close", name)
		}
		if got := b.Close(); len(got) != 1 || got[0] != 9 {
			t.Fatalf("batcher %s round after empty Close = %v, want [9]", name, got)
		}
	}
}

func TestGovernorContractFaultListsAscendingAndInclusive(t *testing.T) {
	for _, name := range PrefetchGovernorNames() {
		g, err := NewPrefetchGovernor(name, config.Default())
		if err != nil {
			t.Fatalf("NewPrefetchGovernor(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("governor %q round-trips as %q", name, g.Name())
		}
		pf := g.NewChunk(32)
		if pf.Tree() == nil {
			t.Fatalf("governor %s chunk has no tree", name)
		}
		for _, fault := range []int{0, 5, 31} {
			leaves := pf.OnFault(fault)
			if !sort.IntsAreSorted(leaves) {
				t.Fatalf("governor %s OnFault(%d) not ascending: %v", name, fault, leaves)
			}
			found := false
			for _, l := range leaves {
				if l == fault {
					found = true
				}
			}
			if !found {
				t.Fatalf("governor %s OnFault(%d) omitted the faulting block: %v", name, fault, leaves)
			}
		}
	}
}

func TestLearnedStagesPublishMetrics(t *testing.T) {
	cfg := config.Default().WithPolicy(config.PolicyAdaptive)
	for _, name := range []string{"reuse-dist", "bandit-ts"} {
		p, _ := NewPlanner(name, cfg)
		pub, ok := p.(MetricPublisher)
		if !ok {
			t.Fatalf("planner %s does not publish metrics", name)
		}
		for _, acc := range contractAccessSeq(1000) {
			p.ShouldMigrate(acc)
		}
		got := map[string]uint64{}
		pub.PublishMetrics(func(n string, v uint64) { got[n] = v })
		if len(got) == 0 {
			t.Fatalf("planner %s published no metrics", name)
		}
		for n := range got {
			if !strings.HasPrefix(n, "mm.") {
				t.Fatalf("planner %s metric %q not mm-prefixed", name, n)
			}
		}
	}
	g, _ := NewPrefetchGovernor("bandit-pf", cfg)
	pub := g.(MetricPublisher)
	g.NewChunk(32).OnFault(3)
	count := 0
	pub.PublishMetrics(func(n string, v uint64) { count++ })
	if count == 0 {
		t.Fatal("bandit-pf published no metrics")
	}
}

func TestBanditGovernorEpsilonZeroMatchesConfiguredKind(t *testing.T) {
	// Without exploration the governor must pick the configured kind
	// for every chunk and behave identically to the static governor.
	cfg := config.Default()
	cfg.Prefetcher = config.PrefetchSequential
	cfg.BanditEpsilonPct = 0
	bg, _ := NewPrefetchGovernor("bandit-pf", cfg)
	kg, _ := NewPrefetchGovernor("", cfg)
	for chunk := 0; chunk < 8; chunk++ {
		a, b := bg.NewChunk(32), kg.NewChunk(32)
		for _, fault := range []int{1, 30, 2} {
			la, lb := a.OnFault(fault), b.OnFault(fault)
			if len(la) != len(lb) {
				t.Fatalf("chunk %d fault %d: bandit-pf %v vs static %v", chunk, fault, la, lb)
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("chunk %d fault %d: bandit-pf %v vs static %v", chunk, fault, la, lb)
				}
			}
		}
	}
}

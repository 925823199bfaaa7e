package mm

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/learn"
	"uvmsim/internal/policy"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/satmath"
	"uvmsim/internal/sim"
)

// This file holds the learned pipeline stages: planners and a prefetch
// governor whose decisions adapt online to the fault stream. They are
// deterministic by construction — state evolves only from the Access
// sequence and Config.PolicySeed (see internal/learn) — so they ride
// the repository's byte-identical reproducibility guarantee unchanged.

// Seed salts separate the draw streams of the learned stages: a run
// composing several learned stages under one PolicySeed must not have
// them consume correlated randomness. XOR with PolicySeed can yield
// zero; learn.NewRNG remaps that to a fixed constant.
const (
	seedSaltReuse  = 0x7265757365646973 // "reusedis"
	seedSaltBandit = 0x62616e6469747473 // "banditts"
	seedSaltPF     = 0x62616e6469747066 // "banditpf"
)

// Reuse-distance planner tuning. The window covers the last 256 planner
// misses; a block re-missing within migrateBelow effective distance
// (reuse distance scaled by its thrash history) migrates, everything
// else stays host-side except a seeded 1-in-exploreOneIn admission that
// keeps the estimator from starving cold-but-hot-tomorrow blocks.
const (
	reuseWindow       = 256
	reuseMigrateBelow = 32
	reuseExploreOneIn = 512
)

func newReuseDistPlanner(cfg config.Config) *reuseDistPlanner {
	return &reuseDistPlanner{
		est:           learn.NewReuseEstimator(reuseWindow),
		dec:           policy.NewDecider(cfg),
		rng:           learn.NewRNG(cfg.PolicySeed ^ seedSaltReuse),
		writeMigrates: cfg.WriteMigrates,
	}
}

// reuseDistPlanner migrates only blocks whose estimated reuse beats the
// migration round-trip cost. Planner calls are exactly the miss stream
// (resident blocks take the fast path and never reach the planner), so
// the estimator's touch distance is "misses since this block last
// missed": short distances mark blocks that keep paying remote latency
// and would amortize a migration, long or unknown distances mark blocks
// cheaper to serve remotely than to thrash through device memory.
//
// Before oversubscription there is nothing to ration and the planner
// defers to the configured threshold scheme; the learned rule engages
// only once capacity pressure makes migration a gamble.
type reuseDistPlanner struct {
	est           *learn.ReuseEstimator
	dec           *policy.Decider
	rng           *learn.RNG
	writeMigrates bool

	decisions  uint64
	windowHits uint64
	migrations uint64
	explores   uint64
}

// ShouldMigrate applies the reuse-distance rule.
func (p *reuseDistPlanner) ShouldMigrate(a Access) bool {
	p.decisions++
	dist, known := p.est.Touch(uint64(a.Block))
	if known {
		p.windowHits++
	}
	base := (a.Write && p.writeMigrates) || p.dec.ShouldMigrate(a.Count, a.Mem, a.RoundTrips)
	if !a.Mem.Oversubscribed {
		if base {
			p.migrations++
		}
		return base
	}
	// Post-oversubscription the planner only ever *vetoes*: a block the
	// threshold scheme would keep host-side stays host-side, and a block
	// it would migrate additionally needs a short effective reuse
	// distance to earn the trip. The effective distance scales the
	// observed one by the block's own thrash history — a block already
	// bounced r times must look r+1 times hotter. Saturating arithmetic
	// so an extreme round-trip count can never wrap into eligibility.
	if !base {
		return false
	}
	if known && satmath.Mul(dist, satmath.Add(a.RoundTrips, 1)) <= reuseMigrateBelow {
		p.migrations++
		return true
	}
	// Seeded escape hatch: without it a block absent from the window
	// could never migrate again and the estimator would observe a frozen
	// policy. One admission in reuseExploreOneIn keeps the feedback loop
	// alive; the draw comes from the run's seeded stream.
	if p.rng.Next()%reuseExploreOneIn == 0 {
		p.explores++
		p.migrations++
		return true
	}
	return false
}

// PublishMetrics implements MetricPublisher.
func (p *reuseDistPlanner) PublishMetrics(emit func(name string, value uint64)) {
	emit("mm.reuse_dist.decisions", p.decisions)
	emit("mm.reuse_dist.window_hits", p.windowHits)
	emit("mm.reuse_dist.migrations", p.migrations)
	emit("mm.reuse_dist.explores", p.explores)
}

// defaultBanditEpochCycles is the epoch length when the configuration
// leaves BanditEpochCycles zero: ~1.35ms of simulated time at the
// default clock, long enough to see hundreds of misses per epoch at
// paper fault rates, short enough to adapt within a kernel.
const defaultBanditEpochCycles = 2_000_000

// banditCostScale fixes the cost resolution of the per-epoch reward:
// cost = pressure * scale / elapsed, so epochs of different lengths
// compare on equal footing without losing the integer signal.
const banditCostScale = 1 << 20

// banditArm is one discretized (ts, p) operating point.
type banditArm struct {
	ts, p uint64
	dec   *policy.Decider
}

func newBanditPlanner(cfg config.Config) *banditPlanner {
	arms := banditArms(cfg)
	epoch := cfg.BanditEpochCycles
	if epoch == 0 {
		epoch = defaultBanditEpochCycles
	}
	return &banditPlanner{
		arms:          arms,
		bandit:        learn.NewBandit(len(arms), cfg.BanditEpsilonPct, cfg.PolicySeed^seedSaltBandit),
		writeMigrates: cfg.WriteMigrates,
		epochCycles:   sim.Cycle(epoch),
	}
}

// banditArms discretizes the (ts, p) space around the configured
// operating point. Arm 0 is exactly the configured pair — the epsilon=0
// anchor — and the remaining arms double or halve each knob (clamped to
// 1, deduplicated) so the bandit explores one octave in each direction.
func banditArms(cfg config.Config) []banditArm {
	halve := func(v uint64) uint64 {
		if v <= 1 {
			return 1
		}
		return v / 2
	}
	pairs := [][2]uint64{
		{cfg.StaticThreshold, cfg.Penalty},
		{satmath.Mul(cfg.StaticThreshold, 2), cfg.Penalty},
		{halve(cfg.StaticThreshold), cfg.Penalty},
		{cfg.StaticThreshold, satmath.Mul(cfg.Penalty, 2)},
		{satmath.Mul(cfg.StaticThreshold, 2), satmath.Mul(cfg.Penalty, 2)},
		{cfg.StaticThreshold, halve(cfg.Penalty)},
	}
	var arms []banditArm
	for _, pr := range pairs {
		dup := false
		for _, a := range arms {
			if a.ts == pr[0] && a.p == pr[1] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		armCfg := cfg
		armCfg.StaticThreshold, armCfg.Penalty = pr[0], pr[1]
		arms = append(arms, banditArm{ts: pr[0], p: pr[1], dec: policy.NewDecider(armCfg)})
	}
	return arms
}

// banditPlanner tunes the (ts, p) threshold pair online: one bandit arm
// per discretized pair, re-selected once per epoch of simulated time.
// The per-epoch cost is miss pressure — misses plus 4x-weighted
// thrashing re-migrations, normalized by epoch length — so the bandit
// minimizes exactly the interconnect traffic the thresholds exist to
// control. Epochs are measured on Access.Now (simulated cycles), never
// wall clock, and exploration draws from the seeded stream, keeping
// runs bit-reproducible.
//
// With BanditEpsilonPct zero the bandit never leaves arm 0 (see
// learn.Bandit), and arm 0 is the configured (ts, p), so the planner is
// byte-identical to the static threshold planner — pinned by the
// epsilon=0 golden regression in internal/core.
type banditPlanner struct {
	arms          []banditArm
	bandit        *learn.Bandit
	cur           int
	writeMigrates bool

	epochCycles sim.Cycle
	epochStart  sim.Cycle
	started     bool
	misses      uint64 // planner calls this epoch
	thrash      uint64 // re-migrations (RoundTrips > 0) this epoch
	epochs      uint64
}

// ShouldMigrate applies the current arm's threshold scheme, closing the
// learning epoch first when it has elapsed.
func (b *banditPlanner) ShouldMigrate(a Access) bool {
	if !b.started {
		b.started = true
		b.epochStart = a.Now
	}
	if a.Now-b.epochStart >= b.epochCycles {
		b.closeEpoch(a.Now)
	}
	b.misses++
	m := (a.Write && b.writeMigrates) || b.arms[b.cur].dec.ShouldMigrate(a.Count, a.Mem, a.RoundTrips)
	if m && a.RoundTrips > 0 {
		b.thrash++
	}
	return m
}

// closeEpoch charges the elapsed epoch to the current arm and selects
// the next one.
func (b *banditPlanner) closeEpoch(now sim.Cycle) {
	elapsed := uint64(now - b.epochStart)
	pressure := satmath.Add(b.misses, satmath.Mul(4, b.thrash))
	cost := satmath.Mul(pressure, banditCostScale) / elapsed
	b.bandit.Reward(b.cur, cost, 1)
	b.cur = b.bandit.Select()
	b.epochStart = now
	b.misses, b.thrash = 0, 0
	b.epochs++
}

// PublishMetrics implements MetricPublisher.
func (b *banditPlanner) PublishMetrics(emit func(name string, value uint64)) {
	emit("mm.bandit_ts.epochs", b.epochs)
	emit("mm.bandit_ts.explores", b.bandit.Explores())
	emit("mm.bandit_ts.current_arm", uint64(b.cur))
	for i, a := range b.arms {
		emit(fmt.Sprintf("mm.bandit_ts.arm.%d.ts%d_p%d.pulls", i, a.ts, a.p), b.bandit.Pulls(i))
	}
}

func newBanditGovernor(cfg config.Config) *banditGovernor {
	// The configured kind is arm 0 so that an unexplored (or epsilon=0)
	// governor reproduces the static configuration exactly.
	kinds := []config.PrefetcherKind{cfg.Prefetcher}
	for _, k := range []config.PrefetcherKind{
		config.PrefetchTree, config.PrefetchSequential, config.PrefetchNone,
	} {
		if k != cfg.Prefetcher {
			kinds = append(kinds, k)
		}
	}
	return &banditGovernor{
		kinds:  kinds,
		bandit: learn.NewBandit(len(kinds), cfg.BanditEpsilonPct, cfg.PolicySeed^seedSaltPF),
	}
}

// banditGovernor selects the prefetcher kind per 2MB chunk with a
// bandit: each chunk creation pulls an arm, and every far fault the
// chunk later takes charges that arm one unit of cost. The mean cost is
// therefore faults-per-chunk — the governor learns which neighbourhood
// grouping keeps chunks from faulting repeatedly. Arm 0 is the
// configured kind, so without exploration the governor is the static
// kind governor.
type banditGovernor struct {
	kinds  []config.PrefetcherKind
	bandit *learn.Bandit
	chunks uint64
}

// NewChunk pulls an arm and returns prefetch state of that kind,
// instrumented to charge its faults back to the arm.
func (g *banditGovernor) NewChunk(nBlocks int) ChunkPrefetcher {
	arm := g.bandit.Select()
	g.bandit.Reward(arm, 0, 1)
	g.chunks++
	return &meteredChunk{inner: prefetch.NewChunk(g.kinds[arm], nBlocks), gov: g, arm: arm}
}

// PublishMetrics implements MetricPublisher.
func (g *banditGovernor) PublishMetrics(emit func(name string, value uint64)) {
	emit("mm.bandit_pf.chunks", g.chunks)
	emit("mm.bandit_pf.explores", g.bandit.Explores())
	for i, k := range g.kinds {
		emit("mm.bandit_pf.arm."+canon(k.String())+".pulls", g.bandit.Pulls(i))
	}
}

// meteredChunk wraps a prefetch.Chunk, charging each fault to the
// bandit arm that chose the chunk's kind. The wrapped behaviour is
// otherwise unchanged, so a never-exploring governor is byte-identical
// to the static one.
type meteredChunk struct {
	inner ChunkPrefetcher
	gov   *banditGovernor
	arm   int
}

// OnFault charges the arm and delegates.
func (c *meteredChunk) OnFault(i int) []int {
	c.gov.bandit.Reward(c.arm, 1, 0)
	return c.inner.OnFault(i)
}

// Tree exposes the wrapped chunk's occupancy tree.
func (c *meteredChunk) Tree() *prefetch.Tree { return c.inner.Tree() }

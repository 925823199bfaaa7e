package mm

import (
	"uvmsim/internal/config"
	"uvmsim/internal/learn"
	"uvmsim/internal/policy"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/satmath"
)

// This file holds the learned pipeline stages: a planner and a prefetch
// governor whose decisions adapt online to the fault stream. They are
// deterministic by construction — state evolves only from the Access
// sequence and Config.PolicySeed (see internal/learn) — so they ride
// the repository's byte-identical reproducibility guarantee unchanged.

// Seed salts separate the draw streams of the learned stages: a run
// composing both learned stages under one PolicySeed must not have
// them consume correlated randomness. XOR with PolicySeed can yield
// zero; learn.NewRNG remaps that to a fixed constant.
const (
	seedSaltReuse = 0x7265757365646973 // "reusedis"
	seedSaltPF    = 0x62616e6469747066 // "banditpf"
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

package learn

import (
	"math/bits"

	"uvmsim/internal/satmath"
)

// Bandit is a discretized epsilon-greedy multi-armed bandit minimizing
// mean cost (the policies feed cost, not reward: lower is better).
//
// Selection is epsilon-greedy with two deliberate asymmetries that make
// the learner's behaviour provable:
//
//   - Unpulled arms are reachable only through exploration. Greedy
//     selection considers pulled arms alone (ties break to the lowest
//     index), so with epsilonPct == 0 the bandit never leaves arm 0 —
//     which is how the bandit-pf governor collapses exactly to the
//     configured prefetcher kind it starts from
//     (TestBanditGovernorEpsilonZeroMatchesConfiguredKind in mm).
//   - Before any arm has been pulled, Select returns arm 0.
//
// Mean costs are compared by 128-bit cross multiplication
// (cost_i * pulls_j vs cost_j * pulls_i), never by division or
// floating point, so selection is exact and platform-independent.
type Bandit struct {
	pulls []uint64
	costs []uint64
	// epsilonPct is the exploration probability in percent [0, 100].
	epsilonPct uint64
	rng        *RNG
	explores   uint64
}

// NewBandit returns a bandit over arms arms exploring with probability
// epsilonPct percent, drawing from a generator seeded with seed. It
// panics when arms is not positive or epsilonPct exceeds 100.
func NewBandit(arms int, epsilonPct uint64, seed uint64) *Bandit {
	if arms <= 0 {
		panic("learn: bandit needs at least one arm")
	}
	if epsilonPct > 100 {
		panic("learn: bandit epsilon above 100%")
	}
	return &Bandit{
		pulls:      make([]uint64, arms),
		costs:      make([]uint64, arms),
		epsilonPct: epsilonPct,
		rng:        NewRNG(seed),
	}
}

// Pulls returns how many pulls arm i has recorded.
func (b *Bandit) Pulls(i int) uint64 { return b.pulls[i] }

// Explores returns how many selections were exploratory draws.
func (b *Bandit) Explores() uint64 { return b.explores }

// Reward records cost against arm i with the given pull weight. The
// planners feed one pull per epoch (weight 1); the prefetch governor
// feeds a pull at chunk-creation time and weight-0 incremental cost as
// faults accrue. Costs and pulls saturate instead of wrapping; at 2^64
// the history is long past meaningful anyway.
func (b *Bandit) Reward(i int, cost, weight uint64) {
	b.costs[i] = satmath.Add(b.costs[i], cost)
	b.pulls[i] = satmath.Add(b.pulls[i], weight)
}

// Select returns the next arm: with probability epsilonPct percent a
// uniformly random arm, otherwise the pulled arm with the lowest mean
// cost (ties to the lowest index), or arm 0 when nothing has been
// pulled yet.
func (b *Bandit) Select() int {
	if b.epsilonPct > 0 && b.rng.Next()%100 < b.epsilonPct {
		b.explores++
		return b.rng.Intn(len(b.pulls))
	}
	best, have := 0, false
	for i := range b.pulls {
		if b.pulls[i] == 0 {
			continue
		}
		if !have || meanLess(b.costs[i], b.pulls[i], b.costs[best], b.pulls[best]) {
			best, have = i, true
		}
	}
	return best
}

// meanLess reports cost_a/pulls_a < cost_b/pulls_b using 128-bit cross
// multiplication. Both pull counts are non-zero at every call site.
func meanLess(costA, pullsA, costB, pullsB uint64) bool {
	hiA, loA := bits.Mul64(costA, pullsB)
	hiB, loB := bits.Mul64(costB, pullsA)
	if hiA != hiB {
		return hiA < hiB
	}
	return loA < loB
}

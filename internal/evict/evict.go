// Package evict implements victim selection for device memory
// replacement: the default 2MB least-recently-used queue of the CUDA
// driver (paper §II-C) and the paper's access-counter-driven simplified
// LFU (§IV, "Access Counter Based Page Replacement"), which prioritizes
// cold and read-only chunks and automatically degenerates to LRU when
// access counters are uniform (the regular-application case).
//
// The policies are expressed over Candidate values so the same code
// serves both eviction granularities (2MB chunks and 64KB basic blocks).
package evict

import (
	"fmt"

	"uvmsim/internal/config"
)

// Candidate describes one resident eviction unit. The caller lists only
// units the current pass may evict: pinned units (pages being migrated,
// or inside a recency guard) never become candidates.
type Candidate struct {
	// Unit identifies the chunk (or block) to the caller.
	Unit uint64
	// LastAccess is the timestamp of the most recent access or
	// migration, in cycles (the LRU key).
	LastAccess uint64
	// Score is the aggregate access-counter value (the LFU key).
	Score uint64
	// Dirty reports whether any page of the unit has been written and
	// would need a write-back. Clean (read-only) units are preferred
	// victims.
	Dirty bool
	// Full reports whether the unit is fully populated. The 2MB policy
	// only evicts full chunks while any exist, preserving the tree
	// prefetcher's semantics.
	Full bool
}

// uniformSpreadDivisor controls the LFU→LRU fallback: when
// (max-min) <= max/uniformSpreadDivisor over the eligible candidates'
// scores, the counters are considered uniform — dense sequential
// applications touch every page with almost the same frequency — and the
// policy falls back to pure LRU ordering. The band is deliberately wide
// (a 2x spread still counts as uniform): historic counters of a dense
// cyclic sweep drift apart by up to one iteration's worth of accesses,
// while the hot/cold split of irregular applications spans orders of
// magnitude, so the wide band keeps regular workloads stably on LRU
// without ever misclassifying a genuine hot/cold mix.
const uniformSpreadDivisor = 2

// Policy selects an eviction victim.
type Policy interface {
	// SelectVictim returns the index into cands of the unit to evict.
	// ok is false when cands is empty.
	SelectVictim(cands []Candidate) (idx int, ok bool)
	// Name returns the policy name.
	Name() string
}

// New returns the policy implementation for the configured kind.
func New(kind config.ReplacementPolicy) Policy {
	switch kind {
	case config.ReplaceLRU:
		return lru{}
	case config.ReplaceLFU:
		return lfu{}
	default:
		panic(fmt.Sprintf("evict: unknown replacement policy %v", kind))
	}
}

// eligible reports whether the candidate may be considered in this pass.
// fullOnly restricts to fully-populated units.
func eligible(c Candidate, fullOnly bool) bool {
	return !fullOnly || c.Full
}

// forEachEligible invokes f over eligible candidates, first restricting
// to full units and, only if none exist, relaxing to partial ones (the
// driver must still make room when no chunk is fully populated).
func forEachEligible(cands []Candidate, f func(i int, c Candidate)) bool {
	any := false
	for i, c := range cands {
		if eligible(c, true) {
			f(i, c)
			any = true
		}
	}
	if any {
		return true
	}
	for i, c := range cands {
		if eligible(c, false) {
			f(i, c)
			any = true
		}
	}
	return any
}

// lru is the driver default: evict the unit with the oldest last access.
type lru struct{}

func (lru) Name() string { return "LRU" }

func (lru) SelectVictim(cands []Candidate) (int, bool) {
	best := -1
	forEachEligible(cands, func(i int, c Candidate) {
		if best == -1 || less(lruKey(c), lruKey(cands[best])) {
			best = i
		}
	})
	return best, best != -1
}

// lfu is the paper's simplified least-frequently-used policy: coldest
// first (lowest aggregate counter), clean before dirty among equals,
// oldest as the final tie-break; with a fallback to LRU when scores are
// uniform.
type lfu struct{}

func (lfu) Name() string { return "LFU" }

func (lfu) SelectVictim(cands []Candidate) (int, bool) {
	// First pass: establish score spread over eligible candidates.
	var (
		minScore, maxScore uint64
		seen               bool
	)
	ok := forEachEligible(cands, func(i int, c Candidate) {
		if !seen {
			minScore, maxScore, seen = c.Score, c.Score, true
			return
		}
		if c.Score < minScore {
			minScore = c.Score
		}
		if c.Score > maxScore {
			maxScore = c.Score
		}
	})
	if !ok {
		return -1, false
	}
	if maxScore == 0 {
		// No eligible unit has ever been counted (fresh counters, or a
		// halving sweep just zeroed everything). That is the uniform
		// case by definition — state it explicitly instead of relying
		// on 0-0 <= 0/2 falling through the spread test below.
		return lru{}.SelectVictim(cands)
	}
	if maxScore-minScore <= maxScore/uniformSpreadDivisor {
		// Uniform counters: regular access pattern, fall back to LRU.
		return lru{}.SelectVictim(cands)
	}
	best := -1
	forEachEligible(cands, func(i int, c Candidate) {
		if best == -1 || less(lfuKey(c), lfuKey(cands[best])) {
			best = i
		}
	})
	return best, best != -1
}

// lruKey orders by last access time, tie-broken by unit number so fully
// equal candidates resolve deterministically regardless of slice order.
func lruKey(c Candidate) [4]uint64 { return [4]uint64{c.LastAccess, 0, 0, c.Unit} }

// lfuKey orders by (score, dirtiness, last access, unit): coldest, then
// clean (read-only pages are preferred victims because written-to hot
// pages would migrate back exclusively anyway), then oldest, then the
// lowest unit number. The final component makes selection a total order:
// candidates equal on (score, LastAccess) pick the same victim whether
// the caller's list is sorted or not.
func lfuKey(c Candidate) [4]uint64 {
	dirty := uint64(0)
	if c.Dirty {
		dirty = 1
	}
	return [4]uint64{c.Score, dirty, c.LastAccess, c.Unit}
}

func less(a, b [4]uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Package policy implements the delayed-migration threshold schemes the
// paper compares (§VI): the first-touch baseline, the Volta-style static
// access-counter threshold (from the start or only after
// oversubscription), and the paper's contribution — the dynamic threshold
// of Equation 1:
//
//	td = ts * allocatedPages/totalPages + 1   (no oversubscription)
//	td = ts * (r + 1) * p                     (after oversubscription)
//
// A basic block migrates from host to device when its access count
// reaches the threshold; below it, accesses are served remotely over the
// interconnect (zero-copy). A threshold of 1 therefore means first-touch
// migration, and larger thresholds pin the block progressively harder to
// host memory.
package policy

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/satmath"
)

// MemState is the snapshot of device-memory occupancy the threshold
// depends on.
type MemState struct {
	// AllocatedPages is the number of currently resident device pages.
	AllocatedPages uint64
	// TotalPages is the device memory capacity in pages.
	TotalPages uint64
	// Oversubscribed reports whether the run has entered the
	// oversubscription regime (sticky).
	Oversubscribed bool
}

// Decider computes migration thresholds for one configured scheme.
type Decider struct {
	kind config.MigrationPolicy
	ts   uint64 // static access counter threshold
	p    uint64 // multiplicative migration penalty
}

// NewDecider builds a Decider from the simulation configuration.
func NewDecider(cfg config.Config) *Decider {
	if cfg.StaticThreshold == 0 || cfg.Penalty == 0 {
		panic("policy: zero threshold or penalty")
	}
	return &Decider{kind: cfg.Policy, ts: cfg.StaticThreshold, p: cfg.Penalty}
}

// Threshold returns the dynamic migration threshold td for a basic block
// with the given round-trip count under the given memory state. It is
// always at least 1.
func (d *Decider) Threshold(mem MemState, roundTrips uint64) uint64 {
	switch d.kind {
	case config.PolicyDisabled:
		return 1
	case config.PolicyAlways:
		return d.ts
	case config.PolicyOversub:
		if mem.Oversubscribed {
			return d.ts
		}
		return 1
	case config.PolicyAdaptive:
		if mem.Oversubscribed {
			// ts*(r+1)*p must saturate, not wrap: with the paper's
			// p=2^20 "effectively infinite" setting the plain product
			// overflows uint64 once r is large enough, and a wrapped
			// threshold can collapse to a tiny value — re-enabling
			// migration for exactly the blocks the penalty was supposed
			// to pin host-side.
			return satmath.Mul(satmath.Mul(d.ts, satmath.Add(roundTrips, 1)), d.p)
		}
		if mem.TotalPages == 0 {
			return 1
		}
		// The occupancy product needs the same saturation care as the
		// penalty product: with an adversarial ts the plain
		// ts*AllocatedPages wraps, and a wrapped quotient (or the +1 on
		// a saturated quotient) collapses the threshold.
		return satmath.Add(satmath.Mul(d.ts, mem.AllocatedPages)/mem.TotalPages, 1)
	default:
		panic(fmt.Sprintf("policy: unknown migration policy %v", d.kind))
	}
}

// ShouldMigrate reports whether a block whose access counter has just
// reached count must now migrate to device memory.
func (d *Decider) ShouldMigrate(count uint64, mem MemState, roundTrips uint64) bool {
	return count >= d.Threshold(mem, roundTrips)
}

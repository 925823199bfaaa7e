package mm

import (
	"slices"

	"uvmsim/internal/config"
	"uvmsim/internal/policy"
)

// plannerNames is the fixed, sorted set of MigrationPlanner names.
var plannerNames = []string{"reuse-dist", "thrash-guard", "threshold"}

// PlannerNames lists the MigrationPlanner names, sorted.
func PlannerNames() []string { return slices.Clone(plannerNames) }

// NewPlanner builds the named MigrationPlanner ("" = threshold).
func NewPlanner(name string, cfg config.Config) (MigrationPlanner, error) {
	switch canon(name) {
	case "", "threshold":
		return newThresholdPlanner(cfg), nil
	case "thrash-guard":
		return &thrashGuard{inner: newThresholdPlanner(cfg), bound: ThrashGuardRoundTrips}, nil
	case "reuse-dist":
		return newReuseDistPlanner(cfg), nil
	}
	return nil, unknown("migration planner", name, plannerNames)
}

func newThresholdPlanner(cfg config.Config) *thresholdPlanner {
	return &thresholdPlanner{
		dec:           policy.NewDecider(cfg),
		writeMigrates: cfg.WriteMigrates,
	}
}

// thresholdPlanner is the default planner: the paper's delayed-migration
// threshold schemes (policy.Decider) plus the Volta write-migrates-
// immediately semantics when enabled.
type thresholdPlanner struct {
	dec           *policy.Decider
	writeMigrates bool
}

// ShouldMigrate applies the configured threshold scheme.
func (p *thresholdPlanner) ShouldMigrate(a Access) bool {
	return (a.Write && p.writeMigrates) || p.dec.ShouldMigrate(a.Count, a.Mem, a.RoundTrips)
}

// ThrashGuardRoundTrips is the round-trip bound of the thrash-guard
// planner: once a block has been evicted and re-migrated this many
// times, the guard pins it host-side for the rest of the run. Three
// round trips is past the point where the paper's adaptive penalty term
// already dominates, so the guard only fires on blocks the threshold
// scheme itself keeps re-admitting.
const ThrashGuardRoundTrips = 3

// thrashGuard hard-pins chronic thrashers: a block whose eviction
// round-trip count reaches the bound is never migrated again, in the
// spirit of the paper's §IV discussion of pinning pages that bounce
// between host and device. All other blocks defer to the inner planner.
type thrashGuard struct {
	inner MigrationPlanner
	bound uint64
}

// ShouldMigrate pins chronic thrashers host-side, otherwise delegates.
func (p *thrashGuard) ShouldMigrate(a Access) bool {
	if a.RoundTrips >= p.bound {
		return false
	}
	return p.inner.ShouldMigrate(a)
}

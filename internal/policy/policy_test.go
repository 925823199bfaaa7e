package policy

import (
	"math"
	"testing"
	"testing/quick"

	"uvmsim/internal/config"
)

func decider(kind config.MigrationPolicy, ts, p uint64) *Decider {
	cfg := config.Default()
	cfg.Policy = kind
	cfg.StaticThreshold = ts
	cfg.Penalty = p
	return NewDecider(cfg)
}

func TestDisabledAlwaysFirstTouch(t *testing.T) {
	d := decider(config.PolicyDisabled, 8, 2)
	states := []MemState{
		{0, 1000, false},
		{999, 1000, false},
		{1000, 1000, true},
	}
	for _, m := range states {
		if got := d.Threshold(m, 5); got != 1 {
			t.Fatalf("Disabled threshold = %d under %+v, want 1", got, m)
		}
	}
}

func TestAlwaysIsStatic(t *testing.T) {
	d := decider(config.PolicyAlways, 16, 2)
	for _, m := range []MemState{{0, 100, false}, {100, 100, true}} {
		if got := d.Threshold(m, 9); got != 16 {
			t.Fatalf("Always threshold = %d, want 16", got)
		}
	}
}

func TestOversubSwitches(t *testing.T) {
	d := decider(config.PolicyOversub, 8, 2)
	if got := d.Threshold(MemState{50, 100, false}, 0); got != 1 {
		t.Fatalf("pre-oversub threshold = %d, want 1", got)
	}
	if got := d.Threshold(MemState{100, 100, true}, 0); got != 8 {
		t.Fatalf("post-oversub threshold = %d, want 8", got)
	}
}

// The worked example from §IV: ts=8.
func TestAdaptivePaperExamples(t *testing.T) {
	d := decider(config.PolicyAdaptive, 8, 2)
	// "If currently less than 12.5% of device memory is allocated, then
	// the dynamic threshold is derived as 1."
	if got := d.Threshold(MemState{99, 1000, false}, 0); got != 1 {
		t.Fatalf("threshold at <12.5%% = %d, want 1", got)
	}
	// "the dynamic access counter threshold will be same as the static
	// threshold of 8 just before reaching the full capacity"
	if got := d.Threshold(MemState{999, 1000, false}, 0); got != 8 {
		t.Fatalf("threshold near capacity = %d, want 8", got)
	}
	// "and 9 upon oversubscription" (boundary of the first formula)
	if got := d.Threshold(MemState{1000, 1000, false}, 0); got != 9 {
		t.Fatalf("threshold at exactly full = %d, want 9", got)
	}
	// "With p = 2 and ts = 8, the pages are migrated after 16th access
	// after oversubscription."
	if got := d.Threshold(MemState{1000, 1000, true}, 0); got != 16 {
		t.Fatalf("oversub threshold r=0 = %d, want 16", got)
	}
	// "if a given chunk of memory is evicted twice, then the dynamic
	// threshold of migration for that memory chunk will be derived as 48."
	if got := d.Threshold(MemState{1000, 1000, true}, 2); got != 48 {
		t.Fatalf("oversub threshold r=2 = %d, want 48", got)
	}
}

func TestShouldMigrate(t *testing.T) {
	d := decider(config.PolicyAdaptive, 8, 2)
	over := MemState{1000, 1000, true}
	if d.ShouldMigrate(15, over, 0) {
		t.Fatal("migrated below threshold")
	}
	if !d.ShouldMigrate(16, over, 0) {
		t.Fatal("did not migrate at threshold")
	}
	if !d.ShouldMigrate(17, over, 0) {
		t.Fatal("did not migrate above threshold")
	}
}

func TestNewDeciderValidation(t *testing.T) {
	cfg := config.Default()
	cfg.StaticThreshold = 0
	defer func() {
		if recover() == nil {
			t.Error("zero ts did not panic")
		}
	}()
	NewDecider(cfg)
}

// Property: Adaptive threshold is monotonically nondecreasing in
// occupancy (pre-oversub), in round trips and in p (post-oversub), and
// always >= 1.
func TestAdaptiveMonotonicityProperty(t *testing.T) {
	f := func(a1, a2 uint16, r1, r2 uint8, pRaw uint8) bool {
		total := uint64(4096)
		o1, o2 := uint64(a1)%(total+1), uint64(a2)%(total+1)
		if o1 > o2 {
			o1, o2 = o2, o1
		}
		d := decider(config.PolicyAdaptive, 8, uint64(pRaw)%16+1)
		t1 := d.Threshold(MemState{o1, total, false}, 0)
		t2 := d.Threshold(MemState{o2, total, false}, 0)
		if t1 < 1 || t1 > t2 {
			return false
		}
		rr1, rr2 := uint64(r1), uint64(r2)
		if rr1 > rr2 {
			rr1, rr2 = rr2, rr1
		}
		over := MemState{total, total, true}
		u1 := d.Threshold(over, rr1)
		u2 := d.Threshold(over, rr2)
		return u1 >= 1 && u1 <= u2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: larger penalty never lowers the post-oversubscription
// threshold.
func TestPenaltyMonotonicityProperty(t *testing.T) {
	f := func(p1, p2 uint8, r uint8) bool {
		q1, q2 := uint64(p1)%64+1, uint64(p2)%64+1
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		d1 := decider(config.PolicyAdaptive, 8, q1)
		d2 := decider(config.PolicyAdaptive, 8, q2)
		over := MemState{100, 100, true}
		return d1.Threshold(over, uint64(r)) <= d2.Threshold(over, uint64(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The giant-penalty configuration from Fig. 8 (p = 2^20) must produce an
// effectively-unreachable threshold, i.e. permanent host pinning.
func TestGiantPenaltyPinsToHost(t *testing.T) {
	d := decider(config.PolicyAdaptive, 8, 1048576)
	got := d.Threshold(MemState{100, 100, true}, 0)
	if got != 8*1048576 {
		t.Fatalf("threshold = %d, want %d", got, 8*1048576)
	}
}

// Regression: the Adaptive post-oversubscription product ts*(r+1)*p must
// saturate at MaxUint64 instead of wrapping. Before the fix, the paper's
// p=2^20 setting wrapped to a tiny (or zero) threshold once the
// round-trip count grew past the wrap boundary, silently re-enabling
// migration for exactly the blocks the penalty was meant to pin.
func TestAdaptiveThresholdSaturatesAtWrapBoundary(t *testing.T) {
	over := MemState{100, 100, true}
	d := decider(config.PolicyAdaptive, 8, 1048576) // ts=2^3, p=2^20

	// ts*p = 2^23, so the plain product wraps at r+1 = 2^41:
	// 2^23 * 2^41 = 2^64 ≡ 0 (mod 2^64).
	wrapR := uint64(1)<<41 - 1
	if got := d.Threshold(over, wrapR); got != math.MaxUint64 {
		t.Fatalf("threshold at wrap boundary = %d, want MaxUint64", got)
	}
	// One step below the boundary the exact product still fits:
	// 2^23 * (2^41 - 1) = 2^64 - 2^23.
	if got := d.Threshold(over, wrapR-1); got != math.MaxUint64-(1<<23)+1 {
		t.Fatalf("threshold below boundary = %d, want 2^64-2^23", got)
	}
	// A saturated threshold must keep pinning blocks host-side.
	if d.ShouldMigrate(1<<40, over, wrapR) {
		t.Fatal("wrapped threshold re-enabled migration")
	}
	// Thresholds stay monotone in r across the boundary.
	if d.Threshold(over, wrapR) < d.Threshold(over, wrapR-1) {
		t.Fatal("threshold decreased across the wrap boundary")
	}

	// The r+1 increment itself must saturate too.
	if got := d.Threshold(over, math.MaxUint64); got != math.MaxUint64 {
		t.Fatalf("threshold at r=MaxUint64 = %d, want MaxUint64", got)
	}
}

// Property: the Adaptive threshold never wraps below ts once
// oversubscribed, for any (ts, p, r).
func TestAdaptiveThresholdNeverBelowTS(t *testing.T) {
	over := MemState{100, 100, true}
	f := func(ts, p, r uint64) bool {
		d := decider(config.PolicyAdaptive, ts%math.MaxUint64+1, p%math.MaxUint64+1)
		return d.Threshold(over, r) >= d.ts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

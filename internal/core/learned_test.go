package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"uvmsim/internal/config"
)

// -update-golden rewrites the committed golden files instead of
// comparing against them. Use only for intentional behaviour changes.
var updateGoldenFlag = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

func updateGolden(t *testing.T) bool {
	t.Helper()
	return *updateGoldenFlag
}

// banditEpsilonZeroReport runs sssp under the bandit-ts planner with
// exploration disabled. With epsilon 0 the bandit never leaves arm 0,
// and arm 0 is pinned to the configured (threshold, thrash-guard)
// operating point, so the run must collapse to the static threshold
// planner exactly.
func banditEpsilonZeroReport() string {
	cfg := config.Default()
	cfg.Penalty = 8
	cfg.BanditEpsilonPct = 0
	cfg.MMPipeline.Planner = "bandit-ts"
	return fullReport(RunWorkload("sssp", 0.1, 1, 125, config.PolicyAdaptive, cfg))
}

// TestBanditEpsilonZeroMatchesStaticAdaptive is the learned-policy
// golden regression: bandit-ts with BanditEpsilonPct=0 must be
// byte-identical — every counter and every span timestamp — to the
// static Adaptive threshold run it claims to generalize. This is the
// whole-simulator form of the collapse proof in DESIGN.md §13; the
// mm-level unit form lives in internal/mm/mm_test.go.
func TestBanditEpsilonZeroMatchesStaticAdaptive(t *testing.T) {
	cfg := config.Default()
	cfg.Penalty = 8
	static := fullReport(RunWorkload("sssp", 0.1, 1, 125, config.PolicyAdaptive, cfg))
	if got := banditEpsilonZeroReport(); got != static {
		t.Fatalf("bandit-ts epsilon=0 diverged from static Adaptive:\n--- static\n%s--- bandit\n%s", static, got)
	}
}

// TestBanditEpsilonZeroGoldenFile pins the epsilon=0 report against a
// committed golden file, so a silent simultaneous drift of both the
// static and bandit paths (which the equality test above cannot see)
// still fails CI. Regenerate deliberately with
// go test ./internal/core -run TestBanditEpsilonZeroGoldenFile -update-golden
// after an intentional behaviour change.
func TestBanditEpsilonZeroGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "bandit_epsilon0_sssp.golden")
	got := banditEpsilonZeroReport()
	if updateGolden(t) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("epsilon=0 report drifted from committed golden %s:\n--- golden\n%s--- got\n%s", path, want, got)
	}
}

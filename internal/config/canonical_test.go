package config_test

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/mm"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

// canonicalPenalties span the figures' penalty points, up to Fig. 8's
// "effectively infinite" 2^20.
var canonicalPenalties = []uint64{2, 8, 1 << 20}

// Canonical resets Penalty only where the run cannot read it: under the
// static policies and every planner, every penalty gives the same
// counters and runtime on every paper workload, and every penalty
// canonicalizes to the same config. A control shows the reset is not
// vacuous: Adaptive reads the penalty (bfs at scale 0.3 and 125%
// oversubscription takes 30,933,629 cycles at p=2 and 8,071,086 at
// p=2^20), and Canonical leaves it unchanged.
func TestCanonicalResetsOnlyUnreadPenalty(t *testing.T) {
	bfs := workloads.MustGet("bfs")(0.3)
	for p, want := range map[uint64]uint64{2: 30_933_629, 1 << 20: 8_071_086} {
		base := config.Default()
		base.Penalty = p
		cfg := core.DeriveConfig(bfs, 1, 125, config.PolicyAdaptive, base)
		if cfg.Canonical() != cfg {
			t.Errorf("Adaptive p=%d: Canonical changed the config", p)
		}
		if got := core.Run(bfs, cfg).Runtime(); got != want {
			t.Errorf("Adaptive bfs p=%d: %d cycles, want %d", p, got, want)
		}
	}
	if testing.Short() {
		t.Skip("216-cell penalty sweep")
	}

	type cell struct {
		b   *workloads.Built
		cfg config.Config
	}
	var cells []cell // each (workload, policy, planner) under every penalty in turn
	for _, w := range workloads.Names() {
		b := workloads.MustGet(w)(0.2)
		for _, pol := range []config.MigrationPolicy{config.PolicyDisabled, config.PolicyAlways, config.PolicyOversub} {
			for _, planner := range mm.PlannerNames() {
				for _, p := range canonicalPenalties {
					base := config.Default()
					base.Penalty = p
					base.MMPipeline.Planner = planner
					cells = append(cells, cell{b, core.DeriveConfig(b, 1, 125, pol, base)})
				}
			}
		}
	}
	jobs := make([]func() *core.Result, len(cells))
	for i, c := range cells {
		jobs[i] = func() *core.Result { return core.Run(c.b, c.cfg) }
	}
	res := sweep.Parallel(jobs, 0)
	for i := 0; i < len(cells); i += len(canonicalPenalties) {
		first := cells[i].cfg
		for k := 1; k < len(canonicalPenalties); k++ {
			c, r := cells[i+k].cfg, res[i+k]
			name := res[i].Workload + "/" + c.Policy.String() + "/" + c.MMPipeline.Planner
			if c.Canonical() != first.Canonical() {
				t.Errorf("%s: p=%d and p=%d canonicalize differently", name, c.Penalty, first.Penalty)
			}
			if r.Counters != res[i].Counters {
				t.Errorf("%s: p=%d simulates\n%+v\nbut p=%d\n%+v", name, c.Penalty, r.Counters, first.Penalty, res[i].Counters)
			}
		}
	}
}

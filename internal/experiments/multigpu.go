package experiments

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/report"
)

// MultiGPUClusterSizes are the cluster sizes the extension experiment
// sweeps.
var MultiGPUClusterSizes = []int{1, 2, 4}

// MultiGPU runs the paper's §VIII future-work study: one irregular
// collaborative workload across increasing cluster sizes, comparing the
// first-touch baseline against the Adaptive dynamic threshold as a
// per-GPU memory throttling mechanism. Every GPU's memory is sized so
// its share of the working set sits at oversubPercent of capacity, so
// the per-GPU pressure is constant across cluster sizes. Both columns,
// Adaptive's makespan and thrashed pages, are normalized to the
// same-size baseline cluster.
func MultiGPU(workload string, o Options, oversubPercent uint64) *report.Table {
	o = o.withDefaults()
	t := &report.Table{
		Title: fmt.Sprintf("Extension (paper §VIII): multi-GPU throttling, %s at %d%% per-GPU oversubscription",
			workload, oversubPercent),
		Metric:  "Adaptive makespan and thrash normalized to same-size baseline cluster",
		Columns: []string{"Runtime", "Thrash"},
	}
	b := o.memo.Get(workload, o.Scale)
	for _, n := range MultiGPUClusterSizes {
		base := multigpu.New(b, core.DeriveConfig(b, n, oversubPercent, config.PolicyDisabled, o.Base), n).Run()
		cfg := o.Base
		cfg.Penalty = 8
		adpt := multigpu.New(b, core.DeriveConfig(b, n, oversubPercent, config.PolicyAdaptive, cfg), n).Run()
		t.Add(fmt.Sprintf("%s x%d", workload, n),
			report.Ratio(adpt.Cycles, base.Cycles),
			report.Ratio(adpt.TotalThrashedPages(), base.TotalThrashedPages()))
	}
	return t
}

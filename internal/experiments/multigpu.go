package experiments

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/report"
	"uvmsim/internal/sweep"
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
	adaptive := o.Base
	adaptive.Penalty = 8
	// One row per cluster size: the baseline cell, then the Adaptive one.
	cells := sweep.Grid(len(MultiGPUClusterSizes), 2, o.Workers, func(row, col int) *core.Result {
		pol, base := config.PolicyDisabled, o.Base
		if col == 1 {
			pol, base = config.PolicyAdaptive, adaptive
		}
		n := MultiGPUClusterSizes[row]
		return o.cell(workload, n, oversubPercent, pol, base, fmt.Sprintf("x%d", n)).Run()
	})
	for i, n := range MultiGPUClusterSizes {
		base, adpt := cells[i][0], cells[i][1]
		t.Add(fmt.Sprintf("%s x%d", workload, n),
			report.Ratio(adpt.Runtime(), base.Runtime()),
			report.Ratio(adpt.TotalThrashedPages(), base.TotalThrashedPages()))
	}
	return t
}

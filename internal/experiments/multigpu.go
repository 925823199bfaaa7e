package experiments

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/report"
)

// MultiGPUClusterSizes are the cluster sizes the extension experiment
// sweeps.
var MultiGPUClusterSizes = []int{1, 2, 4}

// multiGPUColumns: per cluster size, the baseline and Adaptive (p=8),
// each GPU's share of the working set at 125% of its memory, so the
// per-GPU pressure is constant across cluster sizes.
func multiGPUColumns(base config.Config) []column {
	adaptive := base
	adaptive.Penalty = 8
	var cols []column
	for _, n := range MultiGPUClusterSizes {
		tag := fmt.Sprintf("x%d", n)
		cols = append(cols,
			column{pct: 125, pol: config.PolicyDisabled, base: base, tag: tag, gpus: n},
			column{pct: 125, pol: config.PolicyAdaptive, base: adaptive, tag: tag, gpus: n})
	}
	return cols
}

// multiGPU renders the paper's §VIII future-work study, one table per
// workload: Adaptive as per-GPU memory throttling, its makespan and
// thrashed pages normalized to the same-size baseline cluster.
func multiGPU(_ Options, cols []column, rows [][]*simulation) Figure {
	var tables []*report.Table
	for _, row := range rows {
		workload := row[0].workload
		t := &report.Table{
			Title:   fmt.Sprintf("Extension (paper §VIII): multi-GPU throttling, %s at %d%% per-GPU oversubscription", workload, cols[0].pct),
			Metric:  "Adaptive makespan and thrash normalized to same-size baseline cluster",
			Columns: []string{"Runtime", "Thrash"},
		}
		for i, n := range MultiGPUClusterSizes {
			base, adpt := row[2*i].res, row[2*i+1].res
			t.Add(fmt.Sprintf("%s x%d", workload, n),
				report.Ratio(adpt.Runtime(), base.Runtime()),
				report.Ratio(adpt.TotalThrashedPages(), base.TotalThrashedPages()))
		}
		tables = append(tables, t)
	}
	return Figure{Tables: tables}
}

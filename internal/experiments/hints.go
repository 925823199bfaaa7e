package experiments

import (
	"uvmsim/internal/config"
	"uvmsim/internal/report"
	"uvmsim/internal/trace"
)

// coldDensityDivisor classifies an allocation as cold when its access
// density (accesses per touched page) is below the hottest allocation's
// density divided by this factor — the hot/cold split of Fig. 2b.
const coldDensityDivisor = 8

// ProfileColdAllocations performs the intrusive-profiling step the paper
// says developers must do before placing cudaMemAdvise hints (§III-C):
// it runs the Figs. 2/3 characterization cell and returns the names of
// allocations whose page-access density marks them as cold.
func ProfileColdAllocations(workload string, o Options) []string {
	o = o.withDefaults()
	return coldAllocations(o.run(cellsOf([]string{workload}, traceColumns(o.Base)))[0][0].collector)
}

// coldAllocations classifies a trace's allocations.
func coldAllocations(col *trace.Collector) []string {
	freqs := col.FrequencyByAllocation()
	density := func(af trace.AllocFreq) float64 { return float64(af.TotalAccesses) / float64(len(af.Pages)) }
	var maxDensity float64
	for _, af := range freqs {
		if len(af.Pages) > 0 {
			maxDensity = max(maxDensity, density(af))
		}
	}
	var cold []string
	for _, af := range freqs {
		if len(af.Pages) > 0 && density(af) < maxDensity/coldDensityDivisor {
			cold = append(cold, af.Name)
		}
	}
	return cold
}

// hintColumns: the profiling trace, then the plain baseline and the
// Adaptive policy (p=8) at 125% oversubscription.
func hintColumns(base config.Config) []column {
	adaptive := base
	adaptive.Penalty = 8
	return append(traceColumns(base),
		column{pct: 125, pol: config.PolicyDisabled, base: base},
		column{pct: 125, pol: config.PolicyAdaptive, base: adaptive})
}

// hints compares three ways of handling oversubscribed irregular
// workloads: the untouched baseline, the baseline plus profile-derived
// zero-copy hints (the state of the art the paper argues against,
// because it needs per-input profiling and developer intervention), and
// the programmer-agnostic Adaptive policy. Columns are normalized to the
// plain baseline. The hinted cells are a second pass; a workload with
// nothing cold reuses its baseline cell.
func hints(o Options, cols []column, rows [][]*simulation) Figure {
	hinted := make([]cell, len(rows))
	for i, row := range rows {
		hinted[i] = cell{workload: row[0].workload, column: cols[1], pinned: coldAllocations(row[0].collector)}
		hinted[i].tag = "hinted"
	}
	pinned := o.run(hinted)[0]
	t := &report.Table{
		Title:   "Extension: profile-derived zero-copy hints vs programmer-agnostic Adaptive",
		Metric:  "Runtime normalized to baseline (125% oversubscription)",
		Columns: []string{"Baseline", "ProfiledHints", "Adaptive"},
	}
	for i, row := range rows {
		base, adaptive := row[1].res, row[2].res
		t.Add(row[0].workload, 1.0, report.Ratio(pinned[i].res.Runtime(), base.Runtime()), report.Ratio(adaptive.Runtime(), base.Runtime()))
	}
	return Figure{Tables: []*report.Table{t}}
}

package experiments

import (
	"slices"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/report"
	"uvmsim/internal/uvm"
)

// coldDensityDivisor classifies an allocation as cold when its access
// density (accesses per touched page) is below the hottest allocation's
// density divided by this factor — the hot/cold split of Fig. 2b.
const coldDensityDivisor = 8

// ProfileColdAllocations performs the intrusive-profiling step the paper
// says developers must do before placing cudaMemAdvise hints (§III-C):
// it runs the workload once with tracing under fitting memory and
// returns the names of allocations whose page-access density marks them
// as cold.
func ProfileColdAllocations(workload string, o Options) []string {
	tr := RunTrace(workload, o, 0)
	freqs := tr.Collector.FrequencyByAllocation()
	var maxDensity float64
	density := make(map[string]float64, len(freqs))
	for _, af := range freqs {
		if len(af.Pages) == 0 {
			continue
		}
		d := float64(af.TotalAccesses) / float64(len(af.Pages))
		density[af.Name] = d
		if d > maxDensity {
			maxDensity = d
		}
	}
	var cold []string
	for _, af := range freqs {
		if d, ok := density[af.Name]; ok && d < maxDensity/coldDensityDivisor {
			cold = append(cold, af.Name)
		}
	}
	return cold
}

// runWithHints runs the workload under the baseline policy with the
// named allocations hard-pinned to host memory (zero-copy). It is an
// ordinary cell tagged "hinted", so Observe sees it like any other.
func runWithHints(workload string, o Options, pct uint64, pinned []string) *core.Result {
	s := o.cell(workload, 1, pct, config.PolicyDisabled, o.Base, "hinted")
	for _, a := range o.memo.Get(workload, o.Scale).Space.Allocations() {
		if slices.Contains(pinned, a.Name) {
			s.Driver.Advise(a, uvm.AdvicePinHost)
		}
	}
	return s.Run()
}

// OracleHints compares three ways of handling oversubscribed irregular
// workloads: the untouched baseline, the baseline plus profile-derived
// zero-copy hints (the state of the art the paper argues against,
// because it needs per-input profiling and developer intervention), and
// the programmer-agnostic Adaptive policy. Columns are normalized to the
// plain baseline.
func OracleHints(o Options, oversubPercent uint64) *report.Table {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Extension: profile-derived zero-copy hints vs programmer-agnostic Adaptive",
		Metric:  "Runtime normalized to baseline (125% oversubscription)",
		Columns: []string{"Baseline", "ProfiledHints", "Adaptive"},
	}
	for _, name := range o.Workloads {
		cold := ProfileColdAllocations(name, o)
		base := o.cell(name, 1, oversubPercent, config.PolicyDisabled, o.Base, "").Run()
		hinted := runWithHints(name, o, oversubPercent, cold)
		cfg := o.Base
		cfg.Penalty = 8
		adpt := o.cell(name, 1, oversubPercent, config.PolicyAdaptive, cfg, "hints").Run()
		t.Add(name, 1.0,
			float64(hinted.Runtime())/float64(base.Runtime()),
			float64(adpt.Runtime())/float64(base.Runtime()))
	}
	return t
}

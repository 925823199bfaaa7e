// Package experiments reproduces every figure and table of the paper's
// evaluation (§VI): each FigN function runs the corresponding sweep and
// returns a report.Table whose rows/series match what the paper plots.
// See DESIGN.md for the per-experiment index and EXPERIMENTS.md for the
// measured-vs-paper comparison.
package experiments

import (
	"fmt"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/memunits"
	"uvmsim/internal/obs"
	"uvmsim/internal/report"
	"uvmsim/internal/sim"
	"uvmsim/internal/snapshot"
	"uvmsim/internal/sweep"
	"uvmsim/internal/trace"
	"uvmsim/internal/workloads"
)

// Options configures an experiment sweep.
type Options struct {
	// Scale is the workload scale factor (1.0 = paper size, tens of MB).
	Scale float64
	// Base is the system configuration; policy/capacity fields are
	// overridden per experiment.
	Base config.Config
	// Workloads restricts the sweep (nil = all eight).
	Workloads []string
	// Workers bounds sweep parallelism (0 = one worker per core). Every
	// simulation is deterministic and single-threaded, so parallel
	// sweeps produce identical tables to serial ones.
	Workers int
	// Observe, when non-nil, is called once per simulation cell with a
	// unique run name ("workload/policy/oversub%[/tag]") and may return
	// observability instruments to attach (nil skips the cell). The
	// factory must be safe for concurrent calls — parallel sweeps invoke
	// it from worker goroutines (obs.Suite.NewRun qualifies).
	Observe func(runName string) *obs.Run
	// Snapshot has no effect: every cell runs from scratch. It is left
	// only because the bench module sets it; delete it with the next
	// change to bench/.
	Snapshot bool
	// SnapStats has no effect: nothing is written through it, so the
	// Stats it points at stays zero. It is left only because the bench
	// module sets it; delete it with the next change to bench/.
	SnapStats *snapshot.Stats

	// memo caches workload builds within one sweep so cells sharing a
	// (workload, scale) pair share one immutable Built instead of each
	// rebuilding it (workloads.Memo is safe for the parallel workers).
	memo *workloads.Memo
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Base.NumSMs == 0 {
		o.Base = config.Default()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.Names()
	}
	if o.memo == nil {
		o.memo = workloads.NewMemo()
	}
	return o
}

// runtimeOf runs one configuration cell. tag disambiguates cells that
// share workload/policy/oversubscription (threshold and penalty sweeps).
func (o Options) runtimeOf(name string, pct uint64, pol config.MigrationPolicy, base config.Config, tag string) *core.Result {
	var r *obs.Run
	if o.Observe != nil {
		runName := fmt.Sprintf("%s/%s/%d%%", name, pol, pct)
		if tag != "" {
			runName += "/" + tag
		}
		// A non-default pipeline changes what the cell measures, so it
		// is part of the cell's identity.
		if ptag := base.MMPipeline.Tag(); ptag != "" {
			runName += "/" + ptag
		}
		r = o.Observe(runName)
	}
	b := o.memo.Get(name, o.Scale)
	s := core.New(b, core.DeriveConfig(b, 1, pct, pol, base))
	s.Observe(r)
	return s.Run()
}

// grid evaluates one simulation per (workload, column) pair in parallel.
func (o Options) grid(cols int, f func(name string, col int) *core.Result) [][]*core.Result {
	return sweep.Grid(len(o.Workloads), cols, o.Workers, func(r, c int) *core.Result {
		return f(o.Workloads[r], c)
	})
}

// Fig1 reproduces Figure 1: sensitivity of every workload to the degree
// of memory oversubscription under the first-touch baseline. Columns
// are runtimes at 100% (fits), 125% and 150% oversubscription,
// normalized to the fitting run.
func Fig1(o Options) *report.Table {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Figure 1: sensitivity to memory oversubscription (Baseline first-touch)",
		Metric:  "Runtime normalized to no-oversubscription",
		Columns: []string{"NoOversub", "125%Oversub", "150%Oversub"},
	}
	pcts := []uint64{100, 125, 150}
	res := o.grid(len(pcts), func(name string, col int) *core.Result {
		return o.runtimeOf(name, pcts[col], config.PolicyDisabled, o.Base, "")
	})
	for i, name := range o.Workloads {
		base := res[i][0].Runtime()
		t.Add(name, 1.0,
			float64(res[i][1].Runtime())/float64(base),
			float64(res[i][2].Runtime())/float64(base))
	}
	return t
}

// TraceResult bundles the collector and result of a characterization
// run (Figures 2 and 3).
type TraceResult struct {
	Result    *core.Result
	Collector *trace.Collector
}

// RunTrace performs the characterization run behind Figures 2 and 3 for
// one workload under the baseline policy with memory fitting (the paper
// characterizes intrinsic access patterns, not oversubscription
// effects). sampleEvery controls Fig. 3 sampling density.
func RunTrace(workload string, o Options, sampleEvery uint64) *TraceResult {
	o = o.withDefaults()
	b := o.memo.Get(workload, o.Scale)
	cfg := core.DeriveConfig(b, 1, 100, config.PolicyDisabled, o.Base)
	s := core.New(b, cfg)
	if o.Observe != nil {
		s.Observe(o.Observe(workload + "/trace"))
	}
	col := trace.NewCollector(b.Space, sampleEvery)
	s.SetObserver(col.Observer())
	res := s.Run()
	return &TraceResult{Result: res, Collector: col}
}

// Fig2 reproduces Figure 2's summary: the per-allocation access
// distribution (page counts, totals, read-only class, hot/cold skew)
// for the requested workload (the paper shows fdtd and sssp).
func Fig2(workload string, o Options) string {
	tr := RunTrace(workload, o, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (%s): page access distribution per managed allocation\n", workload)
	b.WriteString(tr.Collector.FormatFrequency())
	return b.String()
}

// Fig3 reproduces Figure 3: access-pattern samples (cycle, page, r/w)
// for two iterations of the requested workload. It returns one CSV
// series per requested iteration.
func Fig3(workload string, o Options, iters []int, sampleEvery uint64) map[int]string {
	tr := RunTrace(workload, o, sampleEvery)
	out := make(map[int]string, len(iters))
	for _, it := range iters {
		lo, hi := sim.MaxCycle, sim.Cycle(0)
		for _, sp := range tr.Result.Spans {
			if sp.Iter == it {
				if sp.Start < lo {
					lo = sp.Start
				}
				if sp.End > hi {
					hi = sp.End
				}
			}
		}
		if hi == 0 {
			out[it] = "cycle,page,write\n" // iteration absent at this scale
			continue
		}
		out[it] = tr.Collector.DumpSamplesCSV(lo, hi)
	}
	return out
}

// Fig4 reproduces Figure 4: sensitivity to the static access-counter
// threshold ts under the Always scheme at 125% oversubscription,
// normalized to ts=8.
func Fig4(o Options) *report.Table {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Figure 4: sensitivity to static access counter threshold (Always, 125% oversub)",
		Metric:  "Runtime normalized to ts=8",
		Columns: []string{"ts=8", "ts=16", "ts=32"},
	}
	thresholds := []uint64{8, 16, 32}
	res := o.grid(len(thresholds), func(name string, col int) *core.Result {
		cfg := o.Base
		cfg.StaticThreshold = thresholds[col]
		return o.runtimeOf(name, 125, config.PolicyAlways, cfg, fmt.Sprintf("ts=%d", thresholds[col]))
	})
	for i, name := range o.Workloads {
		base := res[i][0].Runtime()
		t.Add(name, 1.0,
			float64(res[i][1].Runtime())/float64(base),
			float64(res[i][2].Runtime())/float64(base))
	}
	return t
}

// Fig5 reproduces Figure 5: Baseline vs Always vs Adaptive under no
// memory oversubscription, normalized to Baseline.
func Fig5(o Options) *report.Table {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Figure 5: policies under no oversubscription",
		Metric:  "Runtime normalized to baseline",
		Columns: []string{"Baseline", "Always", "Adaptive"},
	}
	pols := []config.MigrationPolicy{config.PolicyDisabled, config.PolicyAlways, config.PolicyAdaptive}
	res := o.grid(len(pols), func(name string, col int) *core.Result {
		return o.runtimeOf(name, 100, pols[col], o.Base, "")
	})
	for i, name := range o.Workloads {
		base := res[i][0].Runtime()
		t.Add(name, 1.0,
			float64(res[i][1].Runtime())/float64(base),
			float64(res[i][2].Runtime())/float64(base))
	}
	return t
}

// Fig6And7 reproduces Figures 6 and 7 from one sweep: all four schemes
// at 125% oversubscription with ts=8 and p=8 for Adaptive. The first
// table is runtime, the second is total pages thrashed, both normalized
// to the Disabled baseline.
func Fig6And7(o Options) (runtime, thrash *report.Table) {
	runtime, thrash, _ = Fig6And7Cycles(o)
	return runtime, thrash
}

// Fig6And7Cycles runs the Figure 6/7 sweep once and additionally
// returns the simulated cycles summed over every cell. The sum is a
// deterministic proxy for the sweep's total simulation work — unlike
// wall-clock measurements it is identical across machines and runs —
// which is what the paper-fig67 benchmark gates exactly against its
// committed checksum (bench/checksums.json).
func Fig6And7Cycles(o Options) (runtime, thrash *report.Table, simCycles uint64) {
	o = o.withDefaults()
	cols := []string{"Disabled", "Always", "Oversub", "Adaptive"}
	runtime = &report.Table{
		Title:   "Figure 6: policies under 125% oversubscription",
		Metric:  "Runtime normalized to baseline",
		Columns: cols,
	}
	thrash = &report.Table{
		Title:   "Figure 7: memory thrashing under 125% oversubscription",
		Metric:  "Total pages thrashed normalized to baseline",
		Columns: cols,
	}
	cfg := o.Base
	cfg.Penalty = 8
	pols := config.Policies()
	res := o.grid(len(pols), func(name string, col int) *core.Result {
		return o.runtimeOf(name, 125, pols[col], cfg, "")
	})
	for i, name := range o.Workloads {
		baseTime := res[i][0].Runtime()
		baseThrash := res[i][0].Counters.ThrashedPages
		var times, thrashes [4]float64
		for c := range pols {
			times[c] = report.Ratio(res[i][c].Runtime(), baseTime)
			thrashes[c] = report.Ratio(res[i][c].Counters.ThrashedPages, baseThrash)
			simCycles += res[i][c].Runtime()
		}
		runtime.Add(name, times[0], times[1], times[2], times[3])
		thrash.Add(name, thrashes[0], thrashes[1], thrashes[2], thrashes[3])
	}
	return runtime, thrash, simCycles
}

// Fig6 returns only the runtime table of the Fig6And7 sweep.
func Fig6(o Options) *report.Table { r, _ := Fig6And7(o); return r }

// Fig7 returns only the thrash table of the Fig6And7 sweep.
func Fig7(o Options) *report.Table { _, t := Fig6And7(o); return t }

// Fig8Penalties are the multiplicative-penalty points of Figure 8.
var Fig8Penalties = []uint64{2, 4, 8, 1048576}

// Fig8 reproduces Figure 8: sensitivity to the multiplicative migration
// penalty p under Adaptive at 125% oversubscription, normalized to the
// Disabled baseline.
func Fig8(o Options) *report.Table {
	o = o.withDefaults()
	cols := []string{"Baseline"}
	for _, p := range Fig8Penalties {
		cols = append(cols, fmt.Sprintf("p=%d", p))
	}
	t := &report.Table{
		Title:   "Figure 8: sensitivity to the multiplicative migration penalty (Adaptive, 125% oversub)",
		Metric:  "Runtime normalized to baseline",
		Columns: cols,
	}
	res := o.grid(1+len(Fig8Penalties), func(name string, col int) *core.Result {
		if col == 0 {
			return o.runtimeOf(name, 125, config.PolicyDisabled, o.Base, "")
		}
		cfg := o.Base
		cfg.Penalty = Fig8Penalties[col-1]
		return o.runtimeOf(name, 125, config.PolicyAdaptive, cfg, fmt.Sprintf("p=%d", cfg.Penalty))
	})
	for i, name := range o.Workloads {
		base := res[i][0].Runtime()
		values := []float64{1.0}
		for c := 1; c <= len(Fig8Penalties); c++ {
			values = append(values, float64(res[i][c].Runtime())/float64(base))
		}
		t.Add(name, values...)
	}
	return t
}

// Table1 renders the simulated-system configuration (Table I).
func Table1(cfg config.Config) string {
	var b strings.Builder
	b.WriteString("Table I: configuration parameters of the simulated system\n")
	row := func(k, v string) { fmt.Fprintf(&b, "%-36s %s\n", k, v) }
	row("GPU Architecture", "NVIDIA GeForceGTX 1080Ti Pascal-like")
	row("GPU Cores", fmt.Sprintf("%d SMs, %d cores each @ %d MHz", cfg.NumSMs, cfg.CoresPerSM, cfg.CoreClockMHz))
	row("Shader Core Config", fmt.Sprintf("Max. %d CTA and %d warps per SM, %d threads per warp",
		cfg.MaxCTAsPerSM, cfg.MaxWarpsPerSM, cfg.WarpSize))
	row("Page Size", memunits.HumanBytes(memunits.PageSize))
	row("Page Table Walk Latency", fmt.Sprintf("%d core cycles", cfg.PageWalkLatency))
	row("CPU-GPU Interconnect", fmt.Sprintf("PCI-e 3.0 16x, %.1f bytes/core-cycle/direction, %d cycles latency",
		cfg.PCIeBytesPerCycle, cfg.PCIeLatency))
	row("DRAM Latency", fmt.Sprintf("%d GPU core cycles", cfg.DRAMLatency))
	row("Remote Zero-copy Access Latency", fmt.Sprintf("%d GPU core cycles", cfg.RemoteAccessLatency))
	row("Remote Zero-copy Wire Penalty", fmt.Sprintf("%.1fx (effective BW %.1f bytes/cycle)",
		cfg.RemoteWirePenalty, cfg.PCIeBytesPerCycle/cfg.RemoteWirePenalty))
	row("GMMU TLB", fmt.Sprintf("%d entries, %d-cycle walk on miss", cfg.TLBEntries, cfg.PageWalkLatency))
	row("Eviction Granularity", memunits.HumanBytes(cfg.EvictionGranularity))
	row("Page Replacement Policy", cfg.Replacement.String())
	row("Far-fault Handling Latency", fmt.Sprintf("%dus", cfg.FarFaultLatencyMicros))
	row("Hardware Prefetcher", cfg.Prefetcher.String())
	row("Static Access Counter Threshold", fmt.Sprintf("%d", cfg.StaticThreshold))
	row("Multiplicative Migration Penalty", fmt.Sprintf("%d", cfg.Penalty))
	row("Device Memory", memunits.HumanBytes(cfg.DeviceMemBytes))
	return b.String()
}

// Package experiments reproduces every figure and table of the paper's
// evaluation (§VI): each FigN function runs the corresponding sweep and
// returns a report.Table whose rows/series match what the paper plots.
// Each config sweep (Figures 1 and 4-8, and the pipeline tournament) is
// defined once, as a list of columns; the in-process sweep runs one
// cell per (workload, column), and FigureJob and TournamentJob spell
// the same list as a simd job, so both simulate the same cells. See
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for the
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
	// unique run name ("workload/policy/oversub%[/tag]"), or once per
	// GPU of a multi-GPU cell ("<cell>/gpuN"), and may return
	// observability instruments to attach (nil skips the run). The
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

// cell builds one configuration cell on nGPUs, each GPU's memory sized
// for its share of the working set (core.DeriveConfig), with the
// Observe instruments attached. tag disambiguates cells that share
// workload/policy/oversubscription (threshold and penalty sweeps,
// cluster sizes, hinted runs).
func (o Options) cell(name string, nGPUs int, pct uint64, pol config.MigrationPolicy, base config.Config, tag string) *core.Simulator {
	b := o.memo.Get(name, o.Scale)
	s := core.NewCluster(b, core.DeriveConfig(b, nGPUs, pct, pol, base), nGPUs)
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
		s.ObserveAs(runName, o.Observe)
	}
	return s
}

// runtimeOf builds and runs one cell (see cell).
func (o Options) runtimeOf(name string, nGPUs int, pct uint64, pol config.MigrationPolicy, base config.Config, tag string) *core.Result {
	return o.cell(name, nGPUs, pct, pol, base, tag).Run()
}

// column is one column of a sweep: the single-GPU cell every workload
// runs under it. The same column list drives the in-process sweep
// (grid) and its simd job (job).
type column struct {
	// header labels the column in a figure's table.
	header string
	pct    uint64
	pol    config.MigrationPolicy
	base   config.Config
	// tag tells the column's observe run names apart from other columns
	// with the same policy and oversubscription (see cell).
	tag string
}

// grid runs one cell per (workload, column) pair in parallel.
func (o Options) grid(cols []column) [][]*core.Result {
	return sweep.Grid(len(o.Workloads), len(cols), o.Workers, func(r, c int) *core.Result {
		col := cols[c]
		return o.runtimeOf(o.Workloads[r], 1, col.pct, col.pol, col.base, col.tag)
	})
}

// normalized tabulates value for every cell of a grid, each row
// normalized to its column-0 cell.
func (o Options) normalized(title, metric string, cols []column, res [][]*core.Result, value func(*core.Result) uint64) *report.Table {
	t := &report.Table{Title: title, Metric: metric}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.header)
	}
	for i, name := range o.Workloads {
		row := make([]float64, len(cols))
		for c, r := range res[i] {
			row[c] = report.Ratio(value(r), value(res[i][0]))
		}
		t.Add(name, row...)
	}
	return t
}

// runtimeTable runs a sweep and tabulates its runtimes, normalized to
// column 0.
func (o Options) runtimeTable(title, metric string, cols func(config.Config) []column) *report.Table {
	o = o.withDefaults()
	c := cols(o.Base)
	return o.normalized(title, metric, c, o.grid(c), (*core.Result).Runtime)
}

// fig1Columns: the first-touch baseline at 100% (fits), 125% and 150%
// oversubscription.
func fig1Columns(base config.Config) []column {
	return []column{
		{header: "NoOversub", pct: 100, pol: config.PolicyDisabled, base: base},
		{header: "125%Oversub", pct: 125, pol: config.PolicyDisabled, base: base},
		{header: "150%Oversub", pct: 150, pol: config.PolicyDisabled, base: base},
	}
}

// Fig1 reproduces Figure 1: sensitivity of every workload to the degree
// of memory oversubscription under the first-touch baseline. Columns
// are runtimes at 100% (fits), 125% and 150% oversubscription,
// normalized to the fitting run.
func Fig1(o Options) *report.Table {
	return o.runtimeTable("Figure 1: sensitivity to memory oversubscription (Baseline first-touch)",
		"Runtime normalized to no-oversubscription", fig1Columns)
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
		s.ObserveAs(workload+"/trace", o.Observe)
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

// fig4Columns: Always at 125% under static thresholds ts=8, 16 and 32.
func fig4Columns(base config.Config) []column {
	var cols []column
	for _, ts := range []uint64{8, 16, 32} {
		cfg := base
		cfg.StaticThreshold = ts
		name := fmt.Sprintf("ts=%d", ts)
		cols = append(cols, column{header: name, pct: 125, pol: config.PolicyAlways, base: cfg, tag: name})
	}
	return cols
}

// Fig4 reproduces Figure 4: sensitivity to the static access-counter
// threshold ts under the Always scheme at 125% oversubscription,
// normalized to ts=8.
func Fig4(o Options) *report.Table {
	return o.runtimeTable("Figure 4: sensitivity to static access counter threshold (Always, 125% oversub)",
		"Runtime normalized to ts=8", fig4Columns)
}

// fig5Columns: Baseline, Always and Adaptive with the working set
// fitting in device memory.
func fig5Columns(base config.Config) []column {
	return []column{
		{header: "Baseline", pct: 100, pol: config.PolicyDisabled, base: base},
		{header: "Always", pct: 100, pol: config.PolicyAlways, base: base},
		{header: "Adaptive", pct: 100, pol: config.PolicyAdaptive, base: base},
	}
}

// Fig5 reproduces Figure 5: Baseline vs Always vs Adaptive under no
// memory oversubscription, normalized to Baseline.
func Fig5(o Options) *report.Table {
	return o.runtimeTable("Figure 5: policies under no oversubscription",
		"Runtime normalized to baseline", fig5Columns)
}

// fig67Columns: all four schemes at 125% with the paper's p=8 operating
// point for Adaptive.
func fig67Columns(base config.Config) []column {
	base.Penalty = 8
	var cols []column
	for _, pol := range config.Policies() {
		cols = append(cols, column{header: pol.String(), pct: 125, pol: pol, base: base})
	}
	return cols
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
	cols := fig67Columns(o.Base)
	res := o.grid(cols)
	runtime = o.normalized("Figure 6: policies under 125% oversubscription",
		"Runtime normalized to baseline", cols, res, (*core.Result).Runtime)
	thrash = o.normalized("Figure 7: memory thrashing under 125% oversubscription",
		"Total pages thrashed normalized to baseline", cols, res,
		func(r *core.Result) uint64 { return r.Counters.ThrashedPages })
	for _, row := range res {
		for _, r := range row {
			simCycles += r.Runtime()
		}
	}
	return runtime, thrash, simCycles
}

// Fig8Penalties are the multiplicative-penalty points of Figure 8.
var Fig8Penalties = []uint64{2, 4, 8, 1048576}

// fig8Columns: a Disabled baseline at 125%, then Adaptive at 125% under
// each penalty of Fig8Penalties.
func fig8Columns(base config.Config) []column {
	cols := []column{{header: "Baseline", pct: 125, pol: config.PolicyDisabled, base: base}}
	for _, p := range Fig8Penalties {
		cfg := base
		cfg.Penalty = p
		name := fmt.Sprintf("p=%d", p)
		cols = append(cols, column{header: name, pct: 125, pol: config.PolicyAdaptive, base: cfg, tag: name})
	}
	return cols
}

// Fig8 reproduces Figure 8: sensitivity to the multiplicative migration
// penalty p under Adaptive at 125% oversubscription, normalized to the
// Disabled baseline.
func Fig8(o Options) *report.Table {
	return o.runtimeTable("Figure 8: sensitivity to the multiplicative migration penalty (Adaptive, 125% oversub)",
		"Runtime normalized to baseline", fig8Columns)
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

// Package experiments reproduces every figure and table of the paper's
// evaluation (§VI) and its hints (§III-C) and multi-GPU (§VIII)
// extensions. Figures renders any list of them from one grid that
// simulates each distinct cell once. Each sweep (the figures and the
// pipeline tournament) is defined once, as a list of columns, and
// FigureJob and TournamentJob spell the single-GPU lists as simd jobs.
// See DESIGN.md for the per-experiment index and EXPERIMENTS.md for the
// measured-vs-paper comparison.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/memunits"
	"uvmsim/internal/obs"
	"uvmsim/internal/plot"
	"uvmsim/internal/report"
	"uvmsim/internal/sim"
	"uvmsim/internal/snapshot"
	"uvmsim/internal/sweep"
	"uvmsim/internal/trace"
	"uvmsim/internal/uvm"
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
	// Observe, when non-nil, is called once per distinct cell simulated
	// with a unique run name ("workload/policy/oversub%[/tag]", from the
	// first column asking for it), or once per GPU of a multi-GPU cell
	// ("<cell>/gpuN"), and may return instruments to attach (nil skips
	// the run). The factory must be safe for concurrent calls: parallel
	// sweeps invoke it from worker goroutines (obs.Suite.NewRun does).
	Observe func(runName string) *obs.Run
	// Snapshot has no effect: every cell runs from scratch. It is left
	// only because the bench module sets it; delete it with the next
	// change to bench/.
	Snapshot bool
	// SnapStats has no effect: nothing is written through it, so the
	// Stats it points at stays zero. It is left only because the bench
	// module sets it; delete it with the next change to bench/.
	SnapStats *snapshot.Stats

	// memo caches workload builds within one call so cells sharing a
	// (workload, scale) pair share one immutable Built instead of each
	// rebuilding it (workloads.Memo is safe for the parallel workers).
	memo *workloads.Memo
	// sims is the call's grid: each distinct cell simulated so far.
	sims map[cellKey]*simulation
	// sample is the traced cells' Fig. 3 sampling density.
	sample uint64
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
		o.memo, o.sims = workloads.NewMemo(), map[cellKey]*simulation{}
	}
	return o
}

// column is one column of a sweep: the cell every workload runs under
// it. The same column list drives the in-process sweep (grid) and, for
// the single-GPU sweeps, its simd job (job).
type column struct {
	// header labels the column in a figure's table.
	header string
	pct    uint64
	pol    config.MigrationPolicy
	base   config.Config
	// tag tells the column's observe run names apart from other columns
	// with the same policy and oversubscription (see simulate).
	tag string
	// gpus is the cluster size (0 = one GPU).
	gpus int
	// trace attaches a trace.Collector, which changes no counter, so a
	// traced cell shares its untraced twin's key.
	trace bool
}

// cell is a workload under a column, with the allocations it pins to
// host memory (zero-copy hints).
type cell struct {
	workload string
	column
	pinned []string
}

// cellsOf spells a sweep's cells, workload-major.
func cellsOf(ws []string, cols []column) []cell {
	cells := make([]cell, 0, len(ws)*len(cols))
	for _, w := range ws {
		for _, col := range cols {
			cells = append(cells, cell{workload: w, column: col})
		}
	}
	return cells
}

// cellKey identifies one simulation: a workload on a cluster size under
// a canonical derived config (config.Config.Canonical), with its pinned
// allocations sorted and comma-joined.
type cellKey struct {
	workload string
	gpus     int
	cfg      config.Config
	pinned   string
}

// simulation is one distinct cell of the grid, as the first cell that
// asks for it, with its result and, if traced, its collector.
type simulation struct {
	cell
	res       *core.Result
	collector *trace.Collector
}

// simulate runs the cell, each GPU's memory sized for its share of the
// working set (core.DeriveConfig), with its pins, its collector and the
// Observe instruments attached.
func (sm *simulation) simulate(o Options) *core.Result {
	n := max(sm.gpus, 1)
	b := o.memo.Get(sm.workload, o.Scale)
	s := core.NewCluster(b, core.DeriveConfig(b, n, sm.pct, sm.pol, sm.base), n)
	for _, a := range b.Space.Allocations() {
		if slices.Contains(sm.pinned, a.Name) {
			s.Driver.Advise(a, uvm.AdvicePinHost)
		}
	}
	if sm.trace {
		sm.collector = trace.NewCollector(b.Space, o.sample)
		s.SetObserver(sm.collector.Observer())
	}
	if o.Observe != nil {
		runName := fmt.Sprintf("%s/%s/%d%%", sm.workload, sm.pol, sm.pct)
		if sm.tag != "" {
			runName += "/" + sm.tag
		}
		// A non-default pipeline changes what the cell measures, so it
		// is part of the cell's identity.
		if ptag := sm.base.MMPipeline.Tag(); ptag != "" {
			runName += "/" + ptag
		}
		s.ObserveAs(runName, o.Observe)
	}
	return s.Run()
}

// run simulates, in parallel, each distinct cell of the lists that no
// earlier pass simulated, traced if any list traces it, and returns
// each list's simulations in order.
func (o Options) run(lists ...[]cell) [][]*simulation {
	var todo []*simulation
	out := make([][]*simulation, len(lists))
	for l, cells := range lists {
		for _, c := range cells {
			n := max(c.gpus, 1)
			cfg := core.DeriveConfig(o.memo.Get(c.workload, o.Scale), n, c.pct, c.pol, c.base)
			k := cellKey{c.workload, n, cfg.Canonical(), strings.Join(slices.Sorted(slices.Values(c.pinned)), ",")}
			sm := o.sims[k]
			if sm == nil {
				sm = &simulation{cell: c}
				o.sims[k], todo = sm, append(todo, sm)
			}
			sm.trace = sm.trace || c.trace
			out[l] = append(out[l], sm)
		}
	}
	jobs := make([]func() *core.Result, len(todo))
	for i, sm := range todo {
		jobs[i] = func() *core.Result { return sm.simulate(o) }
	}
	for i, r := range sweep.Parallel(jobs, o.Workers) {
		todo[i].res = r
	}
	return out
}

// Figure is what one name of Figures renders: a table figure's tables,
// or a trace figure's text.
type Figure struct {
	// Tables holds the figure's table (one per workload for multigpu).
	Tables []*report.Table
	// Text renders Fig. 2 (with csv, raw per-page frequencies) or Fig.
	// 3 (with plot, scatters); it is nil for table figures.
	Text func(csv, plot bool) string
	// sims are the figure's cells, workload-major.
	sims []*simulation
}

// figure is one name Figures renders: the workloads it runs unless
// Options.Workloads names others, its columns, and how it renders its
// cells (one row per workload, in column order).
type figure struct {
	workloads []string
	cols      func(config.Config) []column
	render    func(o Options, cols []column, rows [][]*simulation) Figure
	// job marks the single-GPU sweeps FigureJob spells as simd jobs.
	job bool
}

// figureSpecs are Figures 1-8 and the hints (§III-C) and multi-GPU
// (§VIII) extensions by name.
var figureSpecs = map[string]figure{
	"fig1": tableFigure(fig1Columns, "Figure 1: sensitivity to memory oversubscription (Baseline first-touch)",
		"Runtime normalized to no-oversubscription", (*core.Result).Runtime),
	"fig2": {workloads: characterized, cols: traceColumns, render: fig2},
	"fig3": {workloads: characterized, cols: traceColumns, render: fig3},
	"fig4": tableFigure(fig4Columns, "Figure 4: sensitivity to static access counter threshold (Always, 125% oversub)",
		"Runtime normalized to ts=8", (*core.Result).Runtime),
	"fig5": tableFigure(fig5Columns, "Figure 5: policies under no oversubscription",
		"Runtime normalized to baseline", (*core.Result).Runtime),
	"fig6": tableFigure(fig67Columns, "Figure 6: policies under 125% oversubscription",
		"Runtime normalized to baseline", (*core.Result).Runtime),
	"fig7": tableFigure(fig67Columns, "Figure 7: memory thrashing under 125% oversubscription",
		"Total pages thrashed normalized to baseline", func(r *core.Result) uint64 { return r.Counters.ThrashedPages }),
	"fig8": tableFigure(fig8Columns, "Figure 8: sensitivity to the multiplicative migration penalty (Adaptive, 125% oversub)",
		"Runtime normalized to baseline", (*core.Result).Runtime),
	"hints":    {workloads: workloads.IrregularNames(), cols: hintColumns, render: hints},
	"multigpu": {workloads: []string{"ra", "sssp"}, cols: multiGPUColumns, render: multiGPU},
}

// tableFigure renders a single-GPU sweep as one table, each row
// normalized to column 0.
func tableFigure(cols func(config.Config) []column, title, metric string, value func(*core.Result) uint64) figure {
	return figure{workloads: workloads.Names(), cols: cols, job: true, render: func(_ Options, cols []column, rows [][]*simulation) Figure {
		t := &report.Table{Title: title, Metric: metric}
		for _, c := range cols {
			t.Columns = append(t.Columns, c.header)
		}
		for _, row := range rows {
			vals := make([]float64, len(row))
			for c, sm := range row {
				vals[c] = report.Ratio(value(sm.res), value(row[0].res))
			}
			t.Add(row[0].workload, vals...)
		}
		return Figure{Tables: []*report.Table{t}}
	}}
}

// Figures renders the named figures (FigureNames, fig2, fig3, hints,
// multigpu) from one grid that simulates each distinct cell once;
// sampleEvery is Fig. 3's sampling density.
func Figures(o Options, sampleEvery uint64, names ...string) []Figure {
	given := o.Workloads
	o = o.withDefaults()
	if slices.Contains(names, "fig3") {
		o.sample = sampleEvery
	}
	figs, cols, lists := make([]Figure, len(names)), make([][]column, len(names)), make([][]cell, len(names))
	for i, name := range names {
		f, ok := figureSpecs[name]
		if !ok {
			panic(fmt.Sprintf("experiments: unknown figure %q", name))
		}
		ws := f.workloads
		if len(given) > 0 {
			ws = given
		}
		cols[i] = f.cols(o.Base)
		lists[i] = cellsOf(ws, cols[i])
	}
	for i, sims := range o.run(lists...) {
		figs[i] = figureSpecs[names[i]].render(o, cols[i], slices.Collect(slices.Chunk(sims, len(cols[i]))))
		figs[i].sims = sims
	}
	return figs
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

// characterized are the workloads Figures 2 and 3 show.
var characterized = []string{"fdtd", "sssp"}

// traceColumns: the characterization run behind Figures 2 and 3, the
// baseline policy with memory fitting (the paper characterizes
// intrinsic access patterns, not oversubscription effects).
func traceColumns(base config.Config) []column {
	return []column{{pct: 100, pol: config.PolicyDisabled, base: base, trace: true}}
}

// fig2 renders Figure 2: the per-allocation access distribution (page
// counts, totals, read-only class, hot/cold skew) of each workload.
func fig2(_ Options, _ []column, rows [][]*simulation) Figure {
	return Figure{Text: func(csv, _ bool) string {
		var b strings.Builder
		for _, row := range rows {
			if csv {
				b.WriteString(row[0].collector.DumpFrequencyCSV())
			} else {
				fmt.Fprintf(&b, "Figure 2 (%s): page access distribution per managed allocation\n%s\n", row[0].workload, row[0].collector.FormatFrequency())
			}
		}
		return b.String()
	}}
}

// fig3Iterations are the two iterations Figure 3 shows per workload,
// the paper's panels; any other workload shows iterations 2 and 4.
var fig3Iterations = map[string][2]int{"fdtd": {2, 4}, "sssp": {3, 5}}

// fig3 renders Figure 3: each workload's sampled accesses (cycle, page,
// r/w) during two iterations, as CSV or page-vs-cycle scatters.
func fig3(_ Options, _ []column, rows [][]*simulation) Figure {
	return Figure{Text: func(_, plot bool) string {
		var b strings.Builder
		for _, row := range rows {
			its, ok := fig3Iterations[row[0].workload]
			if !ok {
				its = [2]int{2, 4}
			}
			for _, it := range its {
				b.WriteString(fig3Panel(row[0], it, plot))
			}
		}
		return b.String()
	}}
}

// fig3Panel renders one iteration of Figure 3: the samples inside the
// iteration's kernel window, as CSV or a 100x24 scatter ('r' reads, 'w'
// writes). An iteration absent at this scale has no samples.
func fig3Panel(sm *simulation, it int, scatter bool) string {
	lo, hi := sim.MaxCycle, sim.Cycle(0)
	for _, sp := range sm.res.Spans {
		if sp.Iter == it {
			lo, hi = min(lo, sp.Start), max(hi, sp.End)
		}
	}
	if !scatter {
		csv := "cycle,page,write\n"
		if hi != 0 {
			csv = sm.collector.DumpSamplesCSV(lo, hi)
		}
		return fmt.Sprintf("Figure 3 (%s, iteration %d):\n%s\n", sm.workload, it, csv)
	}
	var pts []plot.Point
	for _, s := range sm.collector.Samples() {
		if s.Cycle < lo || s.Cycle > hi {
			continue
		}
		mark := 'r'
		if s.Write {
			mark = 'w'
		}
		pts = append(pts, plot.Point{X: float64(s.Cycle), Y: float64(s.Page), Mark: mark})
	}
	title := fmt.Sprintf("%s iteration %d: page (y) vs cycle (x), r=read w=write", sm.workload, it)
	return plot.Scatter(title, pts, 100, 24) + "\n"
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

// fig5Columns: Baseline, Always and Adaptive with the working set
// fitting in device memory.
func fig5Columns(base config.Config) []column {
	return []column{
		{header: "Baseline", pct: 100, pol: config.PolicyDisabled, base: base},
		{header: "Always", pct: 100, pol: config.PolicyAlways, base: base},
		{header: "Adaptive", pct: 100, pol: config.PolicyAdaptive, base: base},
	}
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

// Fig6And7Cycles runs the Figure 6/7 sweep once and additionally
// returns the simulated cycles summed over every cell. The sum is a
// deterministic proxy for the sweep's total simulation work — unlike
// wall-clock measurements it is identical across machines and runs —
// which is what the paper-fig67 benchmark gates exactly against its
// committed checksum (bench/checksums.json).
func Fig6And7Cycles(o Options) (runtime, thrash *report.Table, simCycles uint64) {
	figs := Figures(o, 0, "fig6", "fig7")
	for _, sm := range figs[0].sims {
		simCycles += sm.res.Runtime()
	}
	return figs[0].Tables[0], figs[1].Tables[0], simCycles
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
func Fig8(o Options) *report.Table { return Figures(o, 0, "fig8")[0].Tables[0] }

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

// Command paperbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	paperbench -fig all            # every figure at the default scale
//	paperbench -fig 6 -scale 0.5   # one figure, reduced scale
//	paperbench -table1             # the simulated-system configuration
//	paperbench -fig 6 -csv         # machine-readable output
//
// Figures 2 and 3 (the access-pattern characterization) take -workloads
// (default fdtd and sssp); -csv prints Fig. 2's raw per-page frequencies
// and -plot draws Fig. 3 as page-vs-cycle scatters:
//
//	paperbench -fig 2 -workloads sssp -csv
//	paperbench -fig 3 -workloads fdtd -plot
//
// Profiling (the simulator's own speed is measured by bench/run.sh):
//
//	paperbench -fig 6 -cpuprofile cpu.pprof   # profile a sweep
//	paperbench -fig 6 -memprofile mem.pprof   # heap profile at exit
//
// Memory-management pipeline overrides (see DESIGN.md, "Memory-management
// pipeline"), one flag per stage; under -tournament, -planner and
// -pf-governor take the comma lists to cross ('default' = the built-in
// governor):
//
//	paperbench -fig 6 -planner thrash-guard
//	paperbench -fig 6 -evictor lru -pf-governor none
//	paperbench -tournament -planner threshold,reuse-dist -pf-governor default,bandit-pf
//
// Observability (see DESIGN.md, "Observability"):
//
//	paperbench -fig 6 -metrics-json metrics.json   # one entry per cell ('-' = stdout)
//	paperbench -fig 6 -trace-out trace.json        # Chrome trace_event
//	paperbench -fig 6 -check-invariants 10000      # periodic checker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/experiments"
	"uvmsim/internal/mm"
	"uvmsim/internal/plot"
	"uvmsim/internal/resultio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects every parsed flag so the tool body is testable
// without a process boundary.
type options struct {
	fig        string
	table1     bool
	csv        bool
	plotOut    bool
	sample     uint64
	cpuprofile string
	memprofile string

	tournament        bool
	tournamentOut     string
	tournamentOversub uint64

	workloads               string
	clusterWorkers          int
	planner, evictor, pfgov string
	planners, governors     []string // parsed -planner and -pf-governor lists
	obs                     cliutil.ObsFlags
	set                     []string // the flags given on the command line

	opt uvmsim.ExperimentOptions
}

// run parses args and executes the selected modes, returning the process
// exit code. All failures — flag errors, validation errors, unwritable
// output paths, invariant violations — surface as a one-line message on
// stderr and a non-zero code, never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.Float64Var(&o.opt.Scale, "scale", 1.0, "workload scale factor (1.0 = paper size)")
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workload subset (default: all; fdtd,sssp for Figs. 2 and 3)")
	fs.IntVar(&o.opt.Workers, "workers", 0, "concurrent sweep cells per figure (0 = one per core)")
	fs.IntVar(&o.clusterWorkers, "cluster-workers", 0, "drain threads per multi-GPU cluster run (0 or 1 = one, at most the GPU count; results are identical for every count)")
	fs.StringVar(&o.planner, "planner", "", "migration planner: "+strings.Join(mm.PlannerNames(), ", ")+" (default: threshold; a comma list with -tournament, default "+strings.Join(experiments.DefaultTournamentPlanners(), ",")+")")
	fs.StringVar(&o.evictor, "evictor", "", "eviction engine: "+strings.Join(mm.EvictorNames(), ", ")+" (default: the paper's pairing for each policy)")
	fs.StringVar(&o.pfgov, "pf-governor", "", "prefetch governor: "+strings.Join(mm.PrefetchGovernorNames(), ", ")+" (default: tree; a comma list with -tournament, 'default' = the built-in governor)")
	fs.StringVar(&o.fig, "fig", "", "figure to regenerate: 1-8, or 'all'")
	fs.BoolVar(&o.table1, "table1", false, "print Table I (simulated system configuration)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables (Fig. 2: raw per-page access frequencies)")
	fs.BoolVar(&o.plotOut, "plot", false, "render tables as terminal bar charts (Fig. 3: page-vs-cycle scatters)")
	fs.Uint64Var(&o.sample, "sample", 256, "Fig. 3 sampling density (1 = every access)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&o.tournament, "tournament", false, "run the pipeline tournament: rank every -planner x -pf-governor combination by total simulated cycles over the workload matrix")
	fs.StringVar(&o.tournamentOut, "tournament-out", "", "with -tournament, also write the leaderboard as a versioned JSON suite to this file ('-' for stdout)")
	fs.Uint64Var(&o.tournamentOversub, "tournament-oversub", 125, "with -tournament, working set as % of device memory per cell")
	o.obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !o.table1 && o.fig == "" && !o.tournament {
		fs.Usage()
		return 2
	}
	o.set = cliutil.Visited(fs)
	if err := parse(&o); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	return 0
}

// parse validates the flag values and completes o.opt.
func parse(o *options) error {
	if err := cliutil.CheckScale(o.opt.Scale); err != nil {
		return err
	}
	if o.opt.Workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", o.opt.Workers)
	}
	if o.clusterWorkers < 0 {
		return fmt.Errorf("-cluster-workers must be non-negative, got %d", o.clusterWorkers)
	}
	if o.sample == 0 {
		// The trace collector reads 0 as "sampling off", which would
		// print Fig. 3 as bare headers.
		return fmt.Errorf("-sample must be positive (1 = every access), got 0")
	}
	for _, name := range o.set {
		if strings.HasPrefix(name, "tournament-") && !o.tournament {
			return fmt.Errorf("-%s applies to -tournament only", name)
		}
	}
	var err error
	if o.opt.Workloads, err = cliutil.ParseWorkloads(o.workloads); err != nil {
		return err
	}
	if o.planners, err = cliutil.ParseComponentList("planner", o.planner, mm.PlannerNames()); err != nil {
		return err
	}
	if o.governors, err = cliutil.ParseComponentList("prefetch governor", o.pfgov, append(mm.PrefetchGovernorNames(), "default")); err != nil {
		return err
	}
	for i, g := range o.governors {
		if g == "default" {
			o.governors[i] = "" // the built-in kind governor
		}
	}
	if !o.tournament && (len(o.planners) > 1 || len(o.governors) > 1) {
		return fmt.Errorf("-planner and -pf-governor take one name each; lists are for -tournament")
	}
	evictor, err := cliutil.ParseComponentName("evictor", o.evictor, mm.EvictorNames())
	if err != nil {
		return err
	}
	o.opt.Base = uvmsim.DefaultConfig()
	o.opt.Base.ClusterWorkers = o.clusterWorkers
	// A named evictor survives the per-cell policy pairing that sweeps
	// apply to Config.Replacement.
	o.opt.Base.MMPipeline.Evictor = evictor
	if len(o.planners) == 1 {
		o.opt.Base.MMPipeline.Planner = o.planners[0]
	}
	if len(o.governors) == 1 {
		o.opt.Base.MMPipeline.Prefetcher = o.governors[0]
	}
	return nil
}

// execute runs the selected modes with profiling hooks wrapped around
// them; it returns instead of exiting so deferred profile writers run.
func execute(o options, stdout, stderr io.Writer) (err error) {
	out, err := o.obs.Open(slices.Contains(o.set, "trace-sample"), stdout, stderr, o.tournamentOut, o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer out.Close()
	if o.cpuprofile != "" {
		if err := pprof.StartCPUProfile(out.Writer(o.cpuprofile)); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(out.Writer(o.memprofile)); err == nil {
				err = werr
			}
		}()
	}
	if out.Suite.Options().Enabled() {
		o.opt.Observe = out.Suite.NewRun
	}
	return out.Run(func() error {
		if o.tournament {
			if err := runTournament(o, out, stdout); err != nil {
				return err
			}
		}
		if o.table1 {
			fmt.Fprint(stdout, uvmsim.Table1(uvmsim.DefaultConfig()))
			fmt.Fprintln(stdout)
		}
		if o.fig == "" {
			return nil
		}
		return runFigures(o, stdout)
	})
}

// emit prints a table as CSV (csv renders it), a bar chart or aligned
// text, then a blank line.
func (o options) emit(w io.Writer, t *uvmsim.Table, csv func() string) {
	switch {
	case o.csv:
		fmt.Fprint(w, csv())
	case o.plotOut:
		rows := make([]plot.NamedRow, len(t.Rows))
		for i, r := range t.Rows {
			rows[i] = plot.NamedRow{Label: r.Label, Values: r.Values}
		}
		fmt.Fprint(w, plot.GroupedBars(t.Title+"\n"+t.Metric, t.Columns, rows, 50))
	default:
		fmt.Fprint(w, t.Format())
	}
	fmt.Fprintln(w)
}

func runFigures(o options, stdout io.Writer) error {
	opt := o.opt
	emit := func(t *uvmsim.Table) { o.emit(stdout, t, t.CSV) }

	// Figures 6 and 7 are two tables of one sweep: run it at most once
	// however many of them the list names.
	var fig6, fig7 *uvmsim.Table
	sweep67 := func() {
		if fig6 == nil {
			fig6, fig7 = uvmsim.Fig6And7(opt)
		}
	}
	// Figures 2 and 3 characterize the paper's fdtd and sssp unless
	// -workloads names others.
	traced := opt.Workloads
	if len(traced) == 0 {
		traced = []string{"fdtd", "sssp"}
	}

	figs := strings.Split(o.fig, ",")
	if o.fig == "all" {
		figs = []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	}
	for _, f := range figs {
		switch f {
		case "1":
			emit(uvmsim.Fig1(opt))
		case "2":
			for _, w := range traced {
				if o.csv {
					fmt.Fprint(stdout, experiments.RunTrace(w, opt, 0).Collector.DumpFrequencyCSV())
				} else {
					fmt.Fprintln(stdout, uvmsim.Fig2(w, opt))
				}
			}
		case "3":
			for _, w := range traced {
				fmt.Fprint(stdout, uvmsim.Fig3(w, opt, o.sample, o.plotOut))
			}
		case "4":
			emit(uvmsim.Fig4(opt))
		case "5":
			emit(uvmsim.Fig5(opt))
		case "6":
			sweep67()
			emit(fig6)
		case "7":
			sweep67()
			emit(fig7)
		case "6+7", "67":
			sweep67()
			emit(fig6)
			emit(fig7)
		case "8":
			emit(uvmsim.Fig8(opt))
		case "multigpu":
			// The paper's §VIII future-work extension.
			emit(uvmsim.MultiGPU("ra", opt, 125))
			emit(uvmsim.MultiGPU("sssp", opt, 125))
		case "hints":
			// Extension: profiled cudaMemAdvise-style hints vs Adaptive.
			hintOpt := opt
			if len(hintOpt.Workloads) == 0 {
				hintOpt.Workloads = uvmsim.IrregularWorkloads()
			}
			emit(uvmsim.OracleHints(hintOpt, 125))
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	return nil
}

// runTournament ranks every requested planner x prefetch-governor
// combination by total simulated cycles over the workload matrix,
// printing the leaderboard and optionally archiving it as a versioned
// JSON suite.
func runTournament(o options, out *cliutil.Outputs, stdout io.Writer) error {
	res := uvmsim.Tournament(uvmsim.TournamentOptions{
		Options:        o.opt,
		OversubPercent: o.tournamentOversub,
		Planners:       o.planners,
		Prefetchers:    o.governors,
	})
	o.emit(stdout, res.Table(), res.CSV)
	return out.Write(o.tournamentOut, func(w io.Writer) error {
		suite := res.Suite()
		suite.GoVersion = runtime.Version()
		return resultio.WriteTournamentSuite(w, suite)
	})
}

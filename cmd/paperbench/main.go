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
// Profiling (the simulator's own speed is measured by bench/run.sh):
//
//	paperbench -fig 6 -cpuprofile cpu.pprof   # profile a sweep
//	paperbench -fig 6 -memprofile mem.pprof   # heap profile at exit
//
// Memory-management pipeline overrides (see DESIGN.md, "Memory-management
// pipeline"):
//
//	paperbench -fig 6 -planner thrash-guard
//	paperbench -fig 6 -replacement lru -prefetcher none
//
// Observability (see DESIGN.md, "Observability"):
//
//	paperbench -fig 6 -metrics-json metrics.json   # one entry per cell
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
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/experiments"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
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

	tournament            bool
	tournamentOut         string
	tournamentOversub     uint64
	tournamentPlanners    string
	tournamentPrefetchers string

	metricsJSON     string
	traceOut        string
	traceSample     uint64
	checkInvariants uint64

	opt uvmsim.ExperimentOptions
}

// run parses args and executes the selected modes, returning the process
// exit code. All failures — flag errors, validation errors, unwritable
// output paths, invariant violations — surface as a one-line message on
// stderr and a non-zero code, never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o              options
		scale          = fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper size)")
		workloads      = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		workers        = fs.Int("workers", 0, "concurrent sweep cells per figure (0 = one per core)")
		clusterWorkers = fs.Int("cluster-workers", 0, "drain threads per multi-GPU cluster run (0 or 1 = one, at most the GPU count; results are identical for every count)")
		planner        = fs.String("planner", "", "migration planner: "+strings.Join(mm.PlannerNames(), ", ")+" (default: threshold)")
		replacement    = fs.String("replacement", "", "replacement policy for eviction: lru, lfu (default: paper pairing)")
		prefetcher     = fs.String("prefetcher", "", "prefetcher: tree, none, sequential (default: tree)")
	)
	fs.StringVar(&o.fig, "fig", "", "figure to regenerate: 1-8, or 'all'")
	fs.BoolVar(&o.table1, "table1", false, "print Table I (simulated system configuration)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.plotOut, "plot", false, "render tables as terminal bar charts")
	fs.Uint64Var(&o.sample, "sample", 256, "Fig. 3 sampling density (1 = every access)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&o.tournament, "tournament", false, "run the pipeline tournament: rank every planner x prefetch-governor combination by total simulated cycles over the workload matrix")
	fs.StringVar(&o.tournamentOut, "tournament-out", "", "with -tournament, also write the leaderboard as a versioned JSON suite to this file ('-' for stdout)")
	fs.Uint64Var(&o.tournamentOversub, "tournament-oversub", 125, "with -tournament, working set as % of device memory per cell")
	fs.StringVar(&o.tournamentPlanners, "tournament-planners", "", "with -tournament, comma-separated planner subset (default: "+strings.Join(experiments.DefaultTournamentPlanners(), ",")+")")
	fs.StringVar(&o.tournamentPrefetchers, "tournament-prefetchers", "", "with -tournament, comma-separated prefetch-governor subset ('default' = the built-in kind governor)")
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "write the observability metric registry of every simulation cell to this file as JSON ('-' for stdout)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write cycle-stamped timeline traces to this file (.jsonl = compact JSONL, otherwise Chrome trace_event JSON)")
	fs.Uint64Var(&o.traceSample, "trace-sample", 1, "keep one of every N trace spans (with -trace-out; 1 = all)")
	fs.Uint64Var(&o.checkInvariants, "check-invariants", 0, "run the cross-component invariant checker every N cycles (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !o.table1 && o.fig == "" && !o.tournament {
		fs.Usage()
		return 2
	}
	traceSampleSet := false
	fs.Visit(func(f *flag.Flag) { traceSampleSet = traceSampleSet || f.Name == "trace-sample" })
	if traceSampleSet && o.traceOut == "" {
		fmt.Fprintln(stderr, "paperbench: -trace-sample requires -trace-out")
		return 2
	}
	if err := cliutil.CheckScale(*scale); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "paperbench: -workers must be non-negative, got %d\n", *workers)
		return 2
	}
	if *clusterWorkers < 0 {
		fmt.Fprintf(stderr, "paperbench: -cluster-workers must be non-negative, got %d\n", *clusterWorkers)
		return 2
	}
	if o.sample == 0 {
		// The trace collector reads 0 as "sampling off", which would
		// print Fig. 3 as bare headers.
		fmt.Fprintln(stderr, "paperbench: -sample must be positive (1 = every access), got 0")
		return 2
	}
	o.opt = uvmsim.ExperimentOptions{Scale: *scale, Workers: *workers}
	var err error
	if o.opt.Workloads, err = cliutil.ParseWorkloads(*workloads); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	if *planner != "" || *replacement != "" || *prefetcher != "" || *clusterWorkers > 0 {
		base := uvmsim.DefaultConfig()
		base.ClusterWorkers = *clusterWorkers
		name, err := cliutil.ParseComponentName("planner", *planner, mm.PlannerNames())
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 2
		}
		base.MMPipeline.Planner = name
		// The replacement override rides on the evictor seam rather than
		// Config.Replacement: sweeps apply WithPolicy per cell, which
		// re-pairs Replacement with the migration policy, while a named
		// evictor survives the pairing.
		if rp, ok, err := cliutil.ParseReplacement(*replacement); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 2
		} else if ok {
			base.MMPipeline.Evictor = strings.ToLower(rp.String())
		}
		if *prefetcher != "" {
			pf, err := cliutil.ParsePrefetcher(*prefetcher)
			if err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return 2
			}
			base.Prefetcher = pf
		}
		o.opt.Base = base
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	return 0
}

// execute runs the selected modes with profiling hooks wrapped around
// them; it returns instead of exiting so deferred profile writers run.
func execute(o options, stdout, stderr io.Writer) (err error) {
	// An invariant violation fails fast as a panic carrying a
	// cycle-stamped diagnostic; surface it as an ordinary error.
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*obs.Violation); ok {
				err = v
				return
			}
			panic(r)
		}
	}()

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
			}
		}()
	}

	// Open observability outputs before any sweep runs, so an unwritable
	// path fails in milliseconds rather than after minutes of simulation.
	outs := make(map[string]io.WriteCloser)
	defer func() {
		//simlint:allow maporder -- closing output files; order cannot reach results
		for _, f := range outs {
			f.Close()
		}
	}()
	for _, path := range []string{o.metricsJSON, o.traceOut} {
		if path == "" || path == "-" || outs[path] != nil {
			continue
		}
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		outs[path] = f
	}

	suite := obs.NewSuite(obs.Options{
		Metrics:     o.metricsJSON != "",
		Trace:       o.traceOut != "",
		TraceSample: o.traceSample,
		CheckEvery:  o.checkInvariants,
	})
	if suite.Options().Enabled() {
		o.opt.Observe = suite.NewRun
	}

	if o.tournament {
		if err := runTournament(o, stdout, stderr); err != nil {
			return err
		}
	}
	if o.table1 {
		fmt.Fprint(stdout, uvmsim.Table1(uvmsim.DefaultConfig()))
		fmt.Fprintln(stdout)
	}
	if o.fig != "" {
		if err := runFigures(o.fig, o.csv, o.plotOut, o.sample, o.opt, stdout); err != nil {
			return err
		}
	}

	if o.metricsJSON != "" {
		w := io.Writer(stdout)
		if o.metricsJSON != "-" {
			w = outs[o.metricsJSON]
		}
		if err := suite.WriteMetricsJSON(w); err != nil {
			return err
		}
		if o.metricsJSON != "-" {
			fmt.Fprintf(stderr, "wrote %s\n", o.metricsJSON)
		}
	}
	if o.traceOut != "" {
		var err error
		if strings.HasSuffix(o.traceOut, ".jsonl") {
			err = suite.WriteTraceJSONL(outs[o.traceOut])
		} else {
			err = suite.WriteChromeTrace(outs[o.traceOut])
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", o.traceOut)
	}
	return nil
}

func runFigures(fig string, csv, plotOut bool, sample uint64, opt uvmsim.ExperimentOptions, stdout io.Writer) error {
	emit := func(t *uvmsim.Table) {
		switch {
		case csv:
			fmt.Fprint(stdout, t.CSV())
		case plotOut:
			rows := make([]plot.NamedRow, len(t.Rows))
			for i, r := range t.Rows {
				rows[i] = plot.NamedRow{Label: r.Label, Values: r.Values}
			}
			fmt.Fprint(stdout, plot.GroupedBars(t.Title+"\n"+t.Metric, t.Columns, rows, 50))
		default:
			fmt.Fprint(stdout, t.Format())
		}
		fmt.Fprintln(stdout)
	}

	// Figures 6 and 7 are two tables of one sweep: run it at most once
	// however many of them the list names.
	var fig6, fig7 *uvmsim.Table
	sweep67 := func() {
		if fig6 == nil {
			fig6, fig7 = uvmsim.Fig6And7(opt)
		}
	}

	figs := strings.Split(fig, ",")
	if fig == "all" {
		figs = []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	}
	for _, f := range figs {
		switch f {
		case "1":
			emit(uvmsim.Fig1(opt))
		case "2":
			for _, w := range []string{"fdtd", "sssp"} {
				fmt.Fprintln(stdout, uvmsim.Fig2(w, opt))
			}
		case "3":
			series := uvmsim.Fig3("fdtd", opt, []int{2, 4}, sample)
			for _, it := range []int{2, 4} {
				fmt.Fprintf(stdout, "Figure 3 (fdtd, iteration %d):\n%s\n", it, series[it])
			}
			series = uvmsim.Fig3("sssp", opt, []int{3, 5}, sample)
			for _, it := range []int{3, 5} {
				fmt.Fprintf(stdout, "Figure 3 (sssp, iteration %d):\n%s\n", it, series[it])
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
// printing the leaderboard (table, CSV or bar chart) and optionally
// archiving it as a versioned JSON suite.
func runTournament(o options, stdout, stderr io.Writer) error {
	topt := uvmsim.TournamentOptions{
		Options:        o.opt,
		OversubPercent: o.tournamentOversub,
	}
	if o.tournamentPlanners != "" {
		for _, p := range cliutil.SplitList(o.tournamentPlanners) {
			name, err := cliutil.ParseComponentName("planner", p, mm.PlannerNames())
			if err != nil {
				return err
			}
			topt.Planners = append(topt.Planners, name)
		}
	}
	if o.tournamentPrefetchers != "" {
		for _, p := range cliutil.SplitList(o.tournamentPrefetchers) {
			// "default" enters the built-in kind governor (the empty
			// name), letting it compete against named governors.
			if p == "default" {
				topt.Prefetchers = append(topt.Prefetchers, "")
				continue
			}
			name, err := cliutil.ParseComponentName("prefetch governor", p, mm.PrefetchGovernorNames())
			if err != nil {
				return err
			}
			topt.Prefetchers = append(topt.Prefetchers, name)
		}
	}
	res := uvmsim.Tournament(topt)
	t := res.Table()
	switch {
	case o.csv:
		fmt.Fprint(stdout, res.CSV())
	case o.plotOut:
		rows := make([]plot.NamedRow, len(t.Rows))
		for i, r := range t.Rows {
			rows[i] = plot.NamedRow{Label: r.Label, Values: r.Values}
		}
		fmt.Fprint(stdout, plot.GroupedBars(t.Title+"\n"+t.Metric, t.Columns, rows, 50))
	default:
		fmt.Fprint(stdout, t.Format())
	}
	fmt.Fprintln(stdout)
	if o.tournamentOut == "" {
		return nil
	}
	suite := res.Suite()
	suite.GoVersion = runtime.Version()
	if o.tournamentOut == "-" {
		return resultio.WriteTournamentSuite(stdout, suite)
	}
	f, err := os.Create(o.tournamentOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := resultio.WriteTournamentSuite(f, suite); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", o.tournamentOut)
	return nil
}

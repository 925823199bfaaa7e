// Command tracedump characterizes a workload's memory access pattern:
// per-allocation page access-frequency distributions (the data behind
// Fig. 2) and page-versus-time access samples per iteration (Fig. 3),
// as summaries, raw CSV, or terminal scatter plots.
//
// Usage:
//
//	tracedump -workload sssp -mode freq
//	tracedump -workload fdtd -mode pattern -iters 2,4 -sample 256
//	tracedump -workload sssp -mode pattern -iters 3,5 -plot
//	tracedump -workload sssp -mode freq -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/experiments"
	"uvmsim/internal/plot"
	"uvmsim/internal/sim"
)

func main() {
	var (
		workload = flag.String("workload", "sssp", "workload name: "+strings.Join(uvmsim.Workloads(), ", "))
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		mode     = flag.String("mode", "freq", "freq (Fig. 2) or pattern (Fig. 3)")
		iters    = flag.String("iters", "2,4", "iterations to dump in pattern mode")
		sample   = flag.Uint64("sample", 256, "keep one sample per N accesses in pattern mode (1 = every access)")
		csv      = flag.Bool("csv", false, "freq mode: emit raw per-page CSV instead of the summary")
		plotOut  = flag.Bool("plot", false, "pattern mode: render terminal scatter plots instead of CSV")
		width    = flag.Int("width", 100, "plot width in characters")
		height   = flag.Int("height", 24, "plot height in characters")
	)
	flag.Parse()
	if err := cliutil.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
	}

	opt := uvmsim.ExperimentOptions{Scale: *scale}
	switch *mode {
	case "freq":
		if *csv {
			tr := experiments.RunTrace(*workload, opt, 0)
			fmt.Print(tr.Collector.DumpFrequencyCSV())
		} else {
			fmt.Print(uvmsim.Fig2(*workload, opt))
		}
	case "pattern":
		want, err := parseIters(*iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(2)
		}
		if *sample == 0 {
			// The trace collector reads 0 as "sampling off", which would
			// dump every iteration as a bare header.
			fmt.Fprintln(os.Stderr, "tracedump: -sample must be positive (1 = every access), got 0")
			os.Exit(2)
		}
		if *plotOut {
			plotPatterns(*workload, opt, want, *sample, *width, *height)
			return
		}
		series := uvmsim.Fig3(*workload, opt, want, *sample)
		for _, it := range want {
			fmt.Printf("# %s iteration %d\n%s", *workload, it, series[it])
		}
	default:
		fmt.Fprintf(os.Stderr, "tracedump: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func parseIters(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad iteration %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// plotPatterns renders one scatter per requested iteration: time on the
// x axis, page number on the y axis, 'r' for reads and 'w' for writes —
// the visual of the paper's Figure 3.
func plotPatterns(workload string, opt uvmsim.ExperimentOptions, want []int, sample uint64, w, h int) {
	tr := experiments.RunTrace(workload, opt, sample)
	for _, it := range want {
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
		var pts []plot.Point
		for _, s := range tr.Collector.Samples() {
			if s.Cycle < lo || s.Cycle > hi {
				continue
			}
			mark := 'r'
			if s.Write {
				mark = 'w'
			}
			pts = append(pts, plot.Point{X: float64(s.Cycle), Y: float64(s.Page), Mark: mark})
		}
		title := fmt.Sprintf("%s iteration %d: page (y) vs cycle (x), r=read w=write", workload, it)
		fmt.Println(plot.Scatter(title, pts, w, h))
	}
}

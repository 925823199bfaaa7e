package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// layerBound is the regression threshold -compare applies to per-layer
// metrics, which BENCHMARK.json leaves unbounded.
const layerBound = 0.25

// verdict judges B's runs of one metric against A's.
//
// When A's own spread (interquartile range over median) is within the
// bound, the medians decide: better or worse when B's median beats or
// trails A's by more than the bound, same otherwise. When the spread is
// wider, the metric is unresolved unless every run of B beats, or
// trails, every run of A.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if !lowerIsBetter {
		a, b = negate(a), negate(b)
	}
	// From here on lower is better.
	ma, mb := median(a), median(b)
	if ma != 0 && (quantile(a, 0.75)-quantile(a, 0.25))/abs(ma) > bound {
		switch {
		case maxOf(b) < minOf(a):
			return "better"
		case minOf(b) > maxOf(a):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case mb < ma-bound*abs(ma):
		return "better"
	case mb > ma+bound*abs(ma):
		return "worse"
	}
	return "same"
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func abs(x float64) float64 { return max(x, -x) }

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc runsFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareLine is one metric of one workload in a comparison.
type compareLine struct {
	workload, metric, verdict string
	a, b                      float64
}

// compareRuns judges every metric both documents measured on every
// workload both ran.
func compareRuns(a, b *runsFile, sp *spec) []compareLine {
	var lines []compareLine
	for _, wd := range workloadDefs {
		ra, rb := a.Runs[wd.name], b.Runs[wd.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound := layerBound
			if m.Bound != nil {
				bound = *m.Bound
			}
			lines = append(lines, compareLine{wd.name, m.Name, verdict(va, vb, m.Better == "lower", bound), median(va), median(vb)})
		}
	}
	return lines
}

// runCompare prints one verdict per metric per workload and fails when
// any metric is worse.
func runCompare(pathA, pathB string, sp *spec, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	for _, l := range compareRuns(a, b, sp) {
		fmt.Fprintf(stdout, "%-14s %-30s %-10s %14.6g -> %-14.6g %+7.1f%%\n",
			l.workload, l.metric, l.verdict, l.a, l.b, 100*ratio(l.b-l.a, abs(l.a)))
		if l.verdict == "worse" {
			code = 1
		}
	}
	return code
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/report"
	"uvmsim/internal/resultio"
)

// TournamentOptions configures a pipeline tournament: every requested
// planner x prefetch-governor combination runs the same workload matrix
// under oversubscription and the combinations are ranked by total
// simulated cycles.
type TournamentOptions struct {
	Options
	// OversubPercent is the working-set pressure every cell runs under
	// (0 = the paper's 125%).
	OversubPercent uint64
	// Planners lists the mm planner names to enter (nil = the
	// default field: static threshold, thrash-guard and both learned
	// planners).
	Planners []string
	// Prefetchers lists the mm prefetch-governor names to
	// cross with the planners (nil = the configured static kind only;
	// include "bandit-pf" to let the governor learn too). The empty
	// string is a valid entry meaning the built-in default governor.
	Prefetchers []string
}

// DefaultTournamentPlanners is the default planner field: the paper's
// static threshold scheme, its thrash-guard variant, and the two
// learned planners.
func DefaultTournamentPlanners() []string {
	return []string{"threshold", "thrash-guard", "reuse-dist", "bandit-ts"}
}

// DefaultTournamentWorkloads is the default workload matrix: the two
// irregular workloads the paper highlights plus the regular bfs — small
// enough to sweep quickly, varied enough that no single heuristic wins
// by construction.
func DefaultTournamentWorkloads() []string {
	return []string{"bfs", "ra", "sssp"}
}

func (o TournamentOptions) withDefaults() TournamentOptions {
	if len(o.Options.Workloads) == 0 {
		o.Options.Workloads = DefaultTournamentWorkloads()
	}
	o.Options = o.Options.withDefaults()
	if o.OversubPercent == 0 {
		o.OversubPercent = 125
	}
	if len(o.Planners) == 0 {
		o.Planners = DefaultTournamentPlanners()
	}
	if len(o.Prefetchers) == 0 {
		o.Prefetchers = []string{""}
	}
	return o
}

// TournamentEntry is one combination's aggregate outcome, plus the
// per-workload cycle counts behind it (aligned with the result's
// Workloads).
type TournamentEntry struct {
	Planner, Prefetcher string
	TotalCycles         uint64
	WorkloadCycles      []uint64
	FarFaults           uint64
	ThrashedPages       uint64
	RemoteAccesses      uint64
}

// Name is the combination's leaderboard identity.
func (e TournamentEntry) Name() string {
	name := "planner=" + e.Planner
	if e.Prefetcher != "" {
		name += ",prefetcher=" + e.Prefetcher
	}
	return name
}

// TournamentResult is a ranked leaderboard over the workload matrix.
type TournamentResult struct {
	Workloads      []string
	Scale          float64
	OversubPercent uint64
	// Entries is sorted best-first: ascending total simulated cycles,
	// ties broken by name so the leaderboard is deterministic.
	Entries []TournamentEntry
}

// Tournament runs every planner x prefetcher combination over the
// workload matrix under the Adaptive policy at the configured
// oversubscription and returns the ranked leaderboard. Cells run in
// parallel (Options.Workers) but the leaderboard is deterministic: every
// simulation is single-threaded and reproducible, and ranking ties
// break lexicographically.
func Tournament(o TournamentOptions) *TournamentResult {
	o = o.withDefaults()
	type combo struct{ planner, prefetcher string }
	var combos []combo
	for _, pl := range o.Planners {
		for _, pf := range o.Prefetchers {
			combos = append(combos, combo{pl, pf})
		}
	}
	// The paper's Fig. 6 operating point: Adaptive with p=8. Every
	// combination shares it, so only the pipeline stages differ.
	base := o.Base
	base.Penalty = 8
	res := o.grid(len(combos), func(name string, col int) *core.Result {
		cfg := base
		cfg.MMPipeline.Planner = combos[col].planner
		cfg.MMPipeline.Prefetcher = combos[col].prefetcher
		return o.runtimeOf(name, 1, o.OversubPercent, config.PolicyAdaptive, cfg, "")
	})
	out := &TournamentResult{
		Workloads:      o.Options.Workloads,
		Scale:          o.Scale,
		OversubPercent: o.OversubPercent,
	}
	for c, cb := range combos {
		e := TournamentEntry{
			Planner:        cb.planner,
			Prefetcher:     cb.prefetcher,
			WorkloadCycles: make([]uint64, len(o.Options.Workloads)),
		}
		for w := range o.Options.Workloads {
			r := res[w][c]
			e.WorkloadCycles[w] = r.Runtime()
			e.TotalCycles += r.Runtime()
			e.FarFaults += r.Counters.FarFaults
			e.ThrashedPages += r.Counters.ThrashedPages
			e.RemoteAccesses += r.Counters.RemoteReads + r.Counters.RemoteWrites
		}
		out.Entries = append(out.Entries, e)
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		if out.Entries[i].TotalCycles != out.Entries[j].TotalCycles {
			return out.Entries[i].TotalCycles < out.Entries[j].TotalCycles
		}
		return out.Entries[i].Name() < out.Entries[j].Name()
	})
	return out
}

// Table renders the leaderboard as a report table: one row per
// combination in rank order, per-workload and total cycles normalized
// to the winner (the winner's row reads 1.00 across).
func (r *TournamentResult) Table() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Pipeline tournament (%d%% oversubscription, scale %g)", r.OversubPercent, r.Scale),
		Metric:  "Simulated cycles normalized to the leaderboard winner",
		Columns: append(append([]string{}, r.Workloads...), "total"),
	}
	if len(r.Entries) == 0 {
		return t
	}
	win := r.Entries[0]
	for _, e := range r.Entries {
		vals := make([]float64, 0, len(r.Workloads)+1)
		for w := range r.Workloads {
			vals = append(vals, report.Ratio(e.WorkloadCycles[w], win.WorkloadCycles[w]))
		}
		vals = append(vals, report.Ratio(e.TotalCycles, win.TotalCycles))
		t.Add(e.Name(), vals...)
	}
	return t
}

// CSV renders the leaderboard with raw cycle counts, one combination
// per row in rank order.
func (r *TournamentResult) CSV() string {
	var b strings.Builder
	b.WriteString("rank,combination")
	for _, w := range r.Workloads {
		b.WriteString(",")
		b.WriteString(w)
	}
	b.WriteString(",total,far_faults,thrashed_pages,remote_accesses\n")
	for i, e := range r.Entries {
		fmt.Fprintf(&b, "%d,%s", i+1, e.Name())
		for _, c := range e.WorkloadCycles {
			fmt.Fprintf(&b, ",%d", c)
		}
		fmt.Fprintf(&b, ",%d,%d,%d,%d\n", e.TotalCycles, e.FarFaults, e.ThrashedPages, e.RemoteAccesses)
	}
	return b.String()
}

// Suite converts the leaderboard to its archival form (goVersion is
// stamped by the caller).
func (r *TournamentResult) Suite() *resultio.TournamentSuite {
	s := &resultio.TournamentSuite{
		Version:        resultio.TournamentFormatVersion,
		Scale:          r.Scale,
		OversubPercent: r.OversubPercent,
		Workloads:      append([]string{}, r.Workloads...),
	}
	for _, e := range r.Entries {
		s.Entries = append(s.Entries, resultio.TournamentEntry{
			Name:           e.Name(),
			Planner:        e.Planner,
			Prefetcher:     e.Prefetcher,
			TotalSimCycles: e.TotalCycles,
			WorkloadCycles: append([]uint64{}, e.WorkloadCycles...),
			FarFaults:      e.FarFaults,
			ThrashedPages:  e.ThrashedPages,
			RemoteAccesses: e.RemoteAccesses,
		})
	}
	return s
}

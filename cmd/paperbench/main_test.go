package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
)

// runCLI invokes the tool body exactly as main does, capturing both
// streams. It fails the test if the invocation panics — every CLI error
// must surface as a one-line message and a non-zero exit code.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("run(%q) panicked: %v", args, r)
		}
	}()
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A bad invocation is refused at flag parse with exit code 2 and a
// message naming the fault: an unknown figure, workload or stage name,
// a stage list outside -tournament, or a flag the named figures would
// ignore.
func TestInvalidInvocationsExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"noMode", nil, "Usage"},
		{"unknownFigure", []string{"-fig", "99"}, `unknown figure "99" (-fig takes ` + figureHelp},
		{"unknownFigureInList", []string{"-fig", "1,6+8"}, `unknown figure "6+8"`},
		{"zeroScale", []string{"-fig", "1", "-scale", "0"}, "-scale must be positive"},
		{"nanScale", []string{"-fig", "1", "-scale", "NaN"}, "-scale must be positive and finite"},
		{"infScale", []string{"-fig", "1", "-scale", "+Inf"}, "-scale must be positive and finite"},
		{"negativeWorkers", []string{"-fig", "1", "-workers", "-1"}, "-workers must be non-negative"},
		{"negativeClusterWorkers", []string{"-fig", "multigpu", "-cluster-workers", "-2"}, "-cluster-workers must be non-negative"},
		{"zeroSample", []string{"-fig", "3", "-sample", "0"}, "-sample must be positive"},
		{"sampleWithoutFig3", []string{"-fig", "6", "-scale", "0.02", "-workloads", "bfs", "-sample", "8"}, "-sample applies to -fig 3 only"},
		{"sampleWithTable1", []string{"-table1", "-sample", "8"}, "-sample applies to -fig 3 only"},
		{"clusterWorkersWithoutMultiGPU", []string{"-fig", "6", "-scale", "0.02", "-workloads", "bfs", "-cluster-workers", "3"}, "-cluster-workers applies to -fig multigpu only"},
		{"clusterWorkersWithTournament", []string{"-tournament", "-cluster-workers", "2"}, "-cluster-workers applies to -fig multigpu only"},
		{"traceSampleWithoutTraceOut", []string{"-fig", "1", "-scale", "0.05", "-workloads", "ra", "-trace-sample", "8"}, "-trace-sample requires -trace-out"},
		{"undefinedFlag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unknownWorkload", []string{"-fig", "6", "-workloads", "nosuch"}, `unknown workload "nosuch"`},
		{"unknownWorkloadTournament", []string{"-tournament", "-workloads", "bfs,nosuch"}, `unknown workload "nosuch"`},
		{"plannerListOutsideTournament", []string{"-fig", "6", "-planner", "threshold,thrash-guard"}, "lists are for -tournament"},
		{"governorListOutsideTournament", []string{"-fig", "6", "-pf-governor", "default,bandit-pf"}, "lists are for -tournament"},
		{"unknownTournamentPlanner", []string{"-tournament", "-planner", "threshold,bogus"}, `unknown planner "bogus"`},
		{"defaultPlannerTournament", []string{"-tournament", "-planner", "default,threshold"}, `unknown planner "default"`},
		{"tournamentOutWithoutTournament", []string{"-table1", "-tournament-out", "-"}, "-tournament-out applies to -tournament only"},
		{"tournamentPlannersFlagGone", []string{"-tournament", "-tournament-planners", "threshold"}, "flag provided but not defined: -tournament-planners"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code == 0 {
				t.Fatalf("run(%q) = 0, want non-zero", tc.args)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want substring %q", stderr, tc.wantErr)
			}
		})
	}
}

// Unwritable observability outputs must fail before any sweep runs.
func TestUnwritableOutputPathsExitNonZero(t *testing.T) {
	for _, flagName := range []string{"-metrics-json", "-trace-out"} {
		t.Run(flagName, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "missing-dir", "out.json")
			code, _, stderr := runCLI(t, "-fig", "1", flagName, bad)
			if code == 0 {
				t.Fatalf("%s %s exited 0, want non-zero", flagName, bad)
			}
			if !strings.Contains(stderr, "missing-dir") {
				t.Fatalf("stderr = %q, want the failing path", stderr)
			}
		})
	}
}

func TestTable1PrintsConfiguration(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-table1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "GPU") {
		t.Fatalf("Table I output:\n%s", stdout)
	}
}

// -cpuprofile and -memprofile write their pprof files around the run.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-table1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", path, err)
		}
	}
}

// A sweep with the full observability surface on: every cell's metrics
// land in one versioned document, the invariant checker runs throughout,
// and the baseline stdout tables are unchanged.
func TestSweepWithMetricsAndInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke test")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	code, stdout, stderr := runCLI(t,
		"-fig", "1", "-scale", "0.25", "-workloads", "ra",
		"-metrics-json", metrics, "-check-invariants", "20000")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "ra") {
		t.Fatalf("figure output:\n%s", stdout)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.SuiteSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Version != obs.MetricsFormatVersion {
		t.Fatalf("metrics version = %d", snap.Version)
	}
	// Fig. 1 runs one cell per oversubscription point. (Below scale
	// 0.25, ra's 125% and 150% devices round to the same two-chunk
	// floor, so they are one cell.)
	if len(snap.Runs) != 3 {
		t.Fatalf("runs = %d, want one per oversubscription point", len(snap.Runs))
	}
	for _, r := range snap.Runs {
		if !strings.HasPrefix(r.Name, "ra/") {
			t.Fatalf("unexpected run name %q", r.Name)
		}
	}
}

// Unknown pipeline-override names must exit 2 before any sweep runs.
func TestUnknownPipelineOverridesExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"planner", []string{"-table1", "-planner", "bogus"}, "unknown planner"},
		{"evictor", []string{"-table1", "-evictor", "mru"}, "unknown evictor"},
		{"pf-governor", []string{"-table1", "-pf-governor", "oracle"}, "unknown prefetch governor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("run(%q) = %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want substring %q", stderr, tc.wantErr)
			}
		})
	}
}

// Every advertised name is accepted by the flag surface: every listed
// planner name, and the String() of every replacement policy and
// prefetcher kind through the stage flags that pick them (using -table1
// so the invocation stays instant).
func TestAdvertisedOverrideNamesParse(t *testing.T) {
	runOK := func(t *testing.T, args ...string) {
		t.Helper()
		args = append([]string{"-table1"}, args...)
		if code, _, stderr := runCLI(t, args...); code != 0 {
			t.Fatalf("run(%q) = %d, stderr %q", args, code, stderr)
		}
	}
	for _, n := range mm.PlannerNames() {
		t.Run("planner/"+n, func(t *testing.T) { runOK(t, "-planner", n) })
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		t.Run("replacement/"+rp.String(), func(t *testing.T) { runOK(t, "-evictor", rp.String()) })
	}
	for _, pf := range []config.PrefetcherKind{config.PrefetchTree, config.PrefetchNone, config.PrefetchSequential} {
		t.Run("prefetcher/"+pf.String(), func(t *testing.T) { runOK(t, "-pf-governor", pf.String()) })
	}
}

// A pipeline override must actually reach the sweep: disabling the
// prefetch governor changes the cells of a small Fig. 6 run.
func TestPipelineOverrideReachesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	base := []string{"-fig", "6", "-csv", "-scale", "0.02", "-workloads", "ra"}
	_, defOut, _ := runCLI(t, base...)
	_, soloOut, _ := runCLI(t, append(append([]string{}, base...), "-pf-governor", "none")...)
	if defOut == "" || soloOut == "" {
		t.Fatal("empty sweep output")
	}
	if defOut == soloOut {
		t.Fatal("-pf-governor none produced byte-identical Fig. 6 output; override did not reach the sweep")
	}
}

// -workers must bound sweep parallelism without changing results:
// simulated sweeps are deterministic, so a single-worker run and the
// default (one worker per core) must emit byte-identical CSV.
func TestWorkersFlagPreservesSweepOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	base := []string{"-fig", "6", "-csv", "-scale", "0.02", "-workloads", "ra"}
	_, defOut, _ := runCLI(t, base...)
	_, oneOut, _ := runCLI(t, append(append([]string{}, base...), "-workers", "1")...)
	if defOut == "" || defOut != oneOut {
		t.Fatalf("-workers 1 changed sweep output:\ndefault:\n%s\nworkers=1:\n%s", defOut, oneOut)
	}
}

// One invocation simulates each distinct cell once, however many of its
// figures ask for it: every cell reaches the metrics document once, and
// stdout is the same as printing the figures one invocation each.
// Figures 6 and 7 are two tables of one sweep. Figures 1 and 4-8 ask
// for 18 cells per workload, of which 13 are distinct: Fig. 1's
// Disabled 100% and 125% cells return in Figs. 5, 6 and 8, Fig. 8's p=8
// is Fig. 6's Adaptive, and Fig. 6's Disabled and Always cells differ
// from Figs. 1 and 4's only in a penalty they never read. (At scale 0.4
// every oversubscription point of these workloads is its own device
// size; smaller scales round some of them to the same floor.)
//
// Traces, hints and multigpu share the grid too. For bfs and ra, Fig. 6
// runs 4 cells each, and the Figs. 2/3 trace adds the Disabled/100%
// cell. Hints adds only bfs's hinted cell: its trace, baseline and
// Adaptive cells are already there, and ra pins nothing, so its hinted
// cell is its baseline. Multigpu's x1 cells are Fig. 6's Disabled and
// Adaptive cells; x2 and x4 add 2 cells each, observed once per GPU
// (2*2 + 2*4 = 12 runs). That is 2*(4+1+12) + 1 = 35 runs.
func TestFig6And7RunOneSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, tc := range []struct {
		name, fig string
		alone     []string // the same figures, one invocation each
		base      []string
		runs      int
	}{
		{"fig6,7", "6,7", []string{"67"}, []string{"-scale", "0.02", "-workloads", "bfs"}, len(config.Policies())},
		{"fig1,4-8", "1,4,5,6,7,8", []string{"1", "4", "5", "6", "7", "8"},
			[]string{"-scale", "0.4", "-workloads", "bfs,ra,backprop"}, 3 * 13},
		{"traces,hints,multigpu", "2,3,6,hints,multigpu", []string{"2", "3", "6", "hints", "multigpu"},
			[]string{"-scale", "0.3", "-workloads", "bfs,ra"}, 2*(4+1+12) + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "metrics.json")
			code, stdout, stderr := runCLI(t, append([]string{"-fig", tc.fig, "-metrics-json", metrics}, tc.base...)...)
			if code != 0 {
				t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
			}
			var alone string
			for _, f := range tc.alone {
				_, out, _ := runCLI(t, append([]string{"-fig", f}, tc.base...)...)
				alone += out
			}
			if stdout != alone {
				t.Fatalf("-fig %s printed\n%s\nthe figures one at a time printed\n%s", tc.fig, stdout, alone)
			}
			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.SuiteSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, r := range snap.Runs {
				if seen[r.Name] {
					t.Fatalf("run %q written twice", r.Name)
				}
				seen[r.Name] = true
			}
			if len(seen) != tc.runs {
				t.Fatalf("%d runs, want %d", len(seen), tc.runs)
			}
		})
	}
}

// Figures 2 and 3 characterize -workloads (default fdtd and sssp); -csv
// prints Fig. 2's raw per-page frequencies and -plot draws Fig. 3's
// iterations as scatters, while a table figure under -plot becomes one
// bar group per row. Multigpu reads -workloads too (default ra and
// sssp): one table per workload named. Each wanted fragment appears
// exactly once.
func TestAccessPatternFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs")
	}
	for _, tc := range []struct {
		name      string
		args      []string
		want, not []string
	}{
		{"fig2Workloads", []string{"-fig", "2", "-workloads", "sssp"},
			[]string{"Figure 2 (sssp)"}, []string{"fdtd"}},
		{"fig2CSV", []string{"-fig", "2", "-workloads", "sssp", "-csv"},
			[]string{"allocation,page,reads,writes\n"}, []string{"Figure 2"}},
		{"fig1Plot", []string{"-fig", "1", "-workloads", "ra", "-plot"},
			[]string{"Figure 1: sensitivity to memory oversubscription (Baseline first-touch)\nRuntime normalized to no-oversubscription\nra\n",
				"NoOversub   |", "125%Oversub |", "150%Oversub |"},
			[]string{"NoOversub,", "fdtd"}},
		{"fig3Plot", []string{"-fig", "3", "-plot"},
			[]string{"fdtd iteration 2: page (y) vs cycle (x)", "fdtd iteration 4:", "sssp iteration 3:", "sssp iteration 5:"},
			[]string{"cycle,page,write"}},
		{"multigpuWorkloads", []string{"-fig", "multigpu", "-workloads", "bfs"},
			[]string{"multi-GPU throttling, bfs at 125%", "bfs x1", "bfs x2", "bfs x4"},
			[]string{"throttling, ra", "throttling, sssp"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-scale", "0.05"}, tc.args...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("run(%q) = %d, stderr %q", args, code, stderr)
			}
			for _, w := range tc.want {
				if got := strings.Count(stdout, w); got != 1 {
					t.Fatalf("stdout has %q %d times, want once:\n%s", w, got, stdout)
				}
			}
			for _, n := range tc.not {
				if strings.Contains(stdout, n) {
					t.Fatalf("stdout has %q:\n%s", n, stdout)
				}
			}
		})
	}
}

// Under -tournament, -planner takes the planners to rank: the
// leaderboard holds exactly the combinations named.
func TestTournamentPlannerList(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	code, stdout, stderr := runCLI(t, "-tournament", "-scale", "0.02", "-workloads", "bfs", "-csv",
		"-planner", "threshold,thrash-guard")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n")[1:] {
		got = append(got, strings.Split(line, ",")[1])
	}
	slices.Sort(got)
	if want := []string{"planner=thrash-guard", "planner=threshold"}; !slices.Equal(got, want) {
		t.Fatalf("leaderboard = %q, want %q:\n%s", got, want, stdout)
	}
}

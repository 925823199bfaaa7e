package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestInvalidInvocationsExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"noMode", nil, "Usage"},
		{"unknownFigure", []string{"-fig", "99"}, "unknown figure"},
		{"zeroScale", []string{"-fig", "1", "-scale", "0"}, "-scale must be positive"},
		{"nanScale", []string{"-fig", "1", "-scale", "NaN"}, "-scale must be positive and finite"},
		{"infScale", []string{"-fig", "1", "-scale", "+Inf"}, "-scale must be positive and finite"},
		{"negativeWorkers", []string{"-fig", "1", "-workers", "-1"}, "-workers must be non-negative"},
		{"negativeClusterWorkers", []string{"-fig", "1", "-cluster-workers", "-2"}, "-cluster-workers must be non-negative"},
		{"zeroSample", []string{"-fig", "3", "-sample", "0"}, "-sample must be positive"},
		{"traceSampleWithoutTraceOut", []string{"-fig", "1", "-scale", "0.05", "-workloads", "ra", "-trace-sample", "8"}, "-trace-sample requires -trace-out"},
		{"undefinedFlag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unknownWorkload", []string{"-fig", "6", "-workloads", "nosuch"}, `unknown workload "nosuch"`},
		{"unknownWorkloadTournament", []string{"-tournament", "-workloads", "bfs,nosuch"}, `unknown workload "nosuch"`},
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
		"-fig", "1", "-scale", "0.05", "-workloads", "ra",
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
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 1 runs one cell per oversubscription point.
	if len(snap.Runs) < 2 {
		t.Fatalf("runs = %d, want one per sweep cell", len(snap.Runs))
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
		{"replacement", []string{"-table1", "-replacement", "mru"}, "unknown replacement"},
		{"prefetcher", []string{"-table1", "-prefetcher", "oracle"}, "unknown prefetcher"},
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

// Every advertised name is accepted by the flag surface: enum String()
// values and every listed planner name parse cleanly (using -table1 so
// the invocation stays instant).
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
		t.Run("replacement/"+rp.String(), func(t *testing.T) { runOK(t, "-replacement", rp.String()) })
	}
	for _, pf := range []config.PrefetcherKind{config.PrefetchTree, config.PrefetchNone, config.PrefetchSequential} {
		t.Run("prefetcher/"+pf.String(), func(t *testing.T) { runOK(t, "-prefetcher", pf.String()) })
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
	_, soloOut, _ := runCLI(t, append(append([]string{}, base...), "-prefetcher", "none")...)
	if defOut == "" || soloOut == "" {
		t.Fatal("empty sweep output")
	}
	if defOut == soloOut {
		t.Fatal("-prefetcher none produced byte-identical Fig. 6 output; override did not reach the sweep")
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

// Figures 6 and 7 are two tables of one sweep: naming both runs it
// once, so every cell reaches the metrics document once, and stdout is
// the same as the combined "67" spelling.
func TestFig6And7RunOneSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	base := []string{"-scale", "0.02", "-workloads", "bfs"}
	code, stdout, stderr := runCLI(t, append([]string{"-fig", "6,7", "-metrics-json", metrics}, base...)...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if _, combined, _ := runCLI(t, append([]string{"-fig", "67"}, base...)...); stdout != combined {
		t.Fatalf("-fig 6,7 printed\n%s\n-fig 67 printed\n%s", stdout, combined)
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
	if len(seen) != len(config.Policies()) {
		t.Fatalf("%d runs, want one per policy (%d)", len(seen), len(config.Policies()))
	}
}

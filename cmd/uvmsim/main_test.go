package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/resultio"
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

func TestInvalidFlagValuesExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknownPolicy", []string{"-policy", "bogus"}, "unknown policy"},
		{"unknownArch", []string{"-arch", "kepler"}, "unknown"},
		{"zeroThreshold", []string{"-ts", "0"}, "-ts must be positive"},
		{"zeroPenalty", []string{"-p", "0"}, "-p must be positive"},
		{"zeroScale", []string{"-scale", "0"}, "-scale must be positive"},
		{"negativeScale", []string{"-scale", "-1"}, "-scale must be positive"},
		{"nanScale", []string{"-scale", "NaN"}, "-scale must be positive and finite"},
		{"infScale", []string{"-scale", "+Inf"}, "-scale must be positive and finite"},
		{"zeroOversub", []string{"-oversub", "0"}, "-oversub must be positive"},
		{"epsilonOver100", []string{"-bandit-epsilon", "101"}, "-bandit-epsilon is a percentage"},
		{"unknownWorkload", []string{"-workload", "nosuch"}, "unknown workload"},
		// -evictor and -pf-governor are the one flag per stage.
		{"unknownReplacement", []string{"-replacement", "lru"}, "flag provided but not defined: -replacement"},
		{"unknownPrefetcher", []string{"-prefetcher", "none"}, "flag provided but not defined: -prefetcher"},
		{"unknownGranularity", []string{"-granularity", "4k"}, "unknown eviction granularity"},
		{"zeroGPUs", []string{"-gpus", "0"}, "-gpus must be at least 1"},
		{"negativeGPUs", []string{"-gpus", "-2"}, "-gpus must be at least 1"},
		{"tooManyGPUs", []string{"-gpus", "65"}, "at most 64, got 65"},
		{"tooManyColoGPUs", []string{"-tenants", "bfs:0", "-gpus", "65", "-cxl-pool-mb", "32"}, "at most 64, got 65"},
		{"negativeWorkers", []string{"-workers", "-1"}, "-workers must be non-negative"},
		{"nanCXLBandwidth", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "8", "-cxl-bw", "NaN"}, "CXLBytesPerCycle NaN"},
		{"infCXLBandwidth", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "8", "-cxl-bw", "Inf"}, "CXLBytesPerCycle +Inf"},
		{"tinyCXLBandwidth", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "8", "-cxl-bw", "1e-300"}, "CXLBytesPerCycle 1e-300"},
		{"jsonOnCluster", []string{"-gpus", "2", "-json", "out.json"}, "single-GPU runs only"},
		{"traceSampleWithoutTraceOut", []string{"-workload", "ra", "-scale", "0.05", "-trace-sample", "8"}, "-trace-sample requires -trace-out"},
		{"undefinedFlag", []string{"-no-such-flag"}, "flag provided but not defined"},
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

// The run header names the eviction and prefetch stages that run: a
// named evictor or prefetch governor replaces the configured
// replacement policy or prefetcher kind, so the header prints its name.
func TestHeaderNamesStagesThatRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"configured", nil, "replacement=LRU prefetcher=Tree"},
		{"namedStages", []string{"-evictor", "lfu", "-pf-governor", "none"}, "replacement=lfu prefetcher=none"},
		{"namedGovernor", []string{"-pf-governor", "tree"}, "replacement=LRU prefetcher=tree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-workload", "ra", "-scale", "0.02", "-policy", "disabled"}, tc.args...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("run(%q) = %d, stderr %q", args, code, stderr)
			}
			header, _, _ := strings.Cut(stdout, "\n")
			if !strings.HasSuffix(header, tc.want) {
				t.Fatalf("header = %q, want it to end in %q", header, tc.want)
			}
		})
	}
}

// Unwritable output paths must fail fast — before the simulation runs —
// so the test asserting the error also proves nothing slow happened. A
// run prints its result line only after simulating, so an empty one
// shows the failure came first.
func TestUnwritableOutputPathsExitNonZero(t *testing.T) {
	single := []string{"-workload", "ra", "-scale", "0.05"}
	for _, tc := range []struct {
		name   string
		args   []string
		result string
	}{
		{"-json", single, "cycles="},
		{"-metrics-json", single, "cycles="},
		{"-trace-out", single, "cycles="},
		{"colo/-metrics-json", coloBase, "checksum="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flagName := tc.name[strings.LastIndex(tc.name, "/")+1:]
			bad := filepath.Join(t.TempDir(), "missing-dir", "out.json")
			args := append(append([]string{}, tc.args...), flagName, bad)
			code, stdout, stderr := runCLI(t, args...)
			if code == 0 {
				t.Fatalf("%s %s exited 0, want non-zero", flagName, bad)
			}
			if !strings.Contains(stderr, "missing-dir") {
				t.Fatalf("stderr = %q, want the failing path", stderr)
			}
			if strings.Contains(stdout, tc.result) {
				t.Fatalf("stdout = %q: the run finished before the path failed", stdout)
			}
		})
	}
}

func TestRunWithObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	record := filepath.Join(dir, "record.json")
	code, stdout, stderr := runCLI(t,
		"-workload", "ra", "-scale", "0.05", "-oversub", "125",
		"-metrics-json", metrics, "-trace-out", trace, "-trace-sample", "4",
		"-check-invariants", "10000", "-json", record, "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "cycles,") {
		t.Fatalf("missing CSV metrics:\n%s", stdout)
	}

	// The metrics document must be the versioned SuiteSnapshot schema.
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
	if len(snap.Runs) != 1 || !strings.HasPrefix(snap.Runs[0].Name, "ra/") {
		t.Fatalf("runs = %+v", snap.Runs)
	}

	// The Chrome trace must be a well-formed traceEvents document.
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// The resultio record must round-trip, including the embedded
	// metrics block (Read cross-validates it against the counters).
	f, err := os.Open(record)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := resultio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Metrics == nil {
		t.Fatal("record is missing the metrics block")
	}
}

// -metrics-json - writes the metrics document to stdout, after the
// run's result lines, and reports no file written.
func TestMetricsJSONToStdout(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-workload", "ra", "-scale", "0.05", "-metrics-json", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	i := strings.Index(stdout, "\n{")
	if i < 0 || !strings.Contains(stdout[:i], "cycles=") {
		t.Fatalf("want the result lines, then the document:\n%s", stdout)
	}
	var snap obs.SuiteSnapshot
	if err := json.Unmarshal([]byte(stdout[i:]), &snap); err != nil {
		t.Fatalf("metrics JSON on stdout: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr, "wrote") {
		t.Fatalf("stderr = %q, want no file reported", stderr)
	}
}

func TestTraceJSONLOutput(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	code, _, stderr := runCLI(t,
		"-workload", "ra", "-scale", "0.05", "-trace-out", trace)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("JSONL trace is empty")
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("JSONL line 1: %v", err)
	}
}

// A cluster run must print the aggregate makespan line and one stats
// line per GPU, and -workers 2 must print exactly the same simulation
// results as the one-worker default.
func TestClusterRunOutputsAndWorkerEquivalence(t *testing.T) {
	args := []string{"-workload", "ra", "-scale", "0.05", "-gpus", "4", "-oversub", "125"}
	code, seq, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(seq, "cluster gpus=4 workers=1") {
		t.Fatalf("missing cluster header:\n%s", seq)
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(seq, fmt.Sprintf("gpu%d:", i)) {
			t.Fatalf("missing gpu%d stats line:\n%s", i, seq)
		}
	}
	code, par, stderr := runCLI(t, append(args, "-workers", "2")...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(par, "cluster gpus=4 workers=2") {
		t.Fatalf("missing two-worker cluster header:\n%s", par)
	}
	// Everything except the reported worker count — makespan, totals and
	// every per-GPU counter — must match byte for byte.
	if got := strings.ReplaceAll(par, "workers=2", "workers=1"); got != seq {
		t.Fatalf("two-worker output diverged from one worker:\none worker:\n%s\ntwo workers:\n%s", seq, par)
	}
}

// -spans prints a cluster's kernel windows, barrier to barrier: one
// line per kernel, identical for every drain worker count.
func TestClusterSpansMatchAcrossWorkers(t *testing.T) {
	spans := func(workers string) []string {
		t.Helper()
		code, out, stderr := runCLI(t, "-workload", "bfs", "-scale", "0.05", "-gpus", "2", "-spans", "-workers", workers)
		if code != 0 {
			t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
		}
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "kernel ") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	seq := spans("1")
	if len(seq) == 0 {
		t.Fatal("-gpus 2 -spans printed no kernel spans")
	}
	if par := spans("2"); !slices.Equal(par, seq) {
		t.Fatalf("two-worker spans diverged from one worker:\none worker:\n%s\ntwo workers:\n%s",
			strings.Join(seq, "\n"), strings.Join(par, "\n"))
	}
}

// Unknown pipeline-component names must exit 2 like every other bad
// flag value.
func TestUnknownPipelineComponentsExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"planner", []string{"-planner", "bogus"}, "unknown planner"},
		{"evictor", []string{"-evictor", "mru"}, "unknown evictor"},
		{"pf-governor", []string{"-pf-governor", "oracle"}, "unknown prefetch governor"},
		// accumulate is the only batcher, so there is no flag to pick one.
		{"batcher", []string{"-batcher", "accumulate"}, "flag provided but not defined: -batcher"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("run(%q) = %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want %q", stderr, tc.wantErr)
			}
		})
	}
}

// Every enum and stage name the tool advertises must be accepted by
// the flag surface: config enum String() values round-trip through the
// CLI parsers (replacement policies and prefetcher kinds through the
// stage flags that pick them), and every pipeline stage a flag selects
// is selectable by its listed name.
func TestAdvertisedNamesRoundTripThroughFlags(t *testing.T) {
	base := []string{"-workload", "ra", "-scale", "0.02"}
	runOK := func(t *testing.T, extra ...string) {
		t.Helper()
		args := append(append([]string{}, base...), extra...)
		if code, _, stderr := runCLI(t, args...); code != 0 {
			t.Fatalf("run(%q) = %d, stderr %q", args, code, stderr)
		}
	}
	for _, pol := range config.Policies() {
		t.Run("policy/"+pol.String(), func(t *testing.T) { runOK(t, "-policy", pol.String()) })
	}
	for _, rp := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		t.Run("replacement/"+rp.String(), func(t *testing.T) { runOK(t, "-evictor", rp.String()) })
	}
	for _, pf := range []config.PrefetcherKind{config.PrefetchTree, config.PrefetchNone, config.PrefetchSequential} {
		t.Run("prefetcher/"+pf.String(), func(t *testing.T) { runOK(t, "-pf-governor", pf.String()) })
	}
	for _, n := range mm.PlannerNames() {
		t.Run("planner/"+n, func(t *testing.T) { runOK(t, "-planner", n) })
	}
	for _, n := range mm.EvictorNames() {
		t.Run("evictor/"+n, func(t *testing.T) { runOK(t, "-evictor", n) })
	}
	for _, n := range mm.PrefetchGovernorNames() {
		t.Run("pf-governor/"+n, func(t *testing.T) { runOK(t, "-pf-governor", n) })
	}
}

package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

// -update-golden rewrites the committed golden files instead of
// comparing against them. Use only for intentional behaviour changes.
var updateGoldenFlag = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

func updateGolden(t *testing.T) bool {
	t.Helper()
	return *updateGoldenFlag
}

// fullReport renders every observable statistic of a run — all counters
// and every kernel span — so golden comparisons catch divergence in any
// field, not just runtime.
func fullReport(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %+v\n", r.Workload, r.Counters)
	for _, s := range r.Spans {
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return b.String()
}

// checkGolden compares got with the committed file testdata/name, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updateGolden(t) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("drifted from committed golden %s:\n--- golden\n%s--- got\n%s", path, want, got)
	}
}

// TestGoldenDeterminism is the golden regression harness for the engine
// and driver hot paths: fdtd and sssp under Adaptive at 125%
// oversubscription must reproduce the committed full reports, across
// repeated runs and across every sweep.Parallel worker count. Any
// scheduling-order or pooling bug in the optimized paths shows up here
// as a diff in some counter or span timestamp.
func TestGoldenDeterminism(t *testing.T) {
	for _, name := range []string{"fdtd", "sssp"} {
		cfg := config.Default()
		cfg.Penalty = 8
		run := func() string {
			return fullReport(RunWorkload(name, 0.1, 1, 125, config.PolicyAdaptive, cfg))
		}
		golden := run()
		checkGolden(t, "report_"+name+".golden", golden)
		if again := run(); again != golden {
			t.Fatalf("%s: back-to-back runs differ:\n--- first\n%s--- second\n%s", name, golden, again)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			jobs := make([]func() string, 6)
			for i := range jobs {
				jobs[i] = run
			}
			for i, got := range sweep.Parallel(jobs, workers) {
				if got != golden {
					t.Fatalf("%s: job %d with %d workers diverged from golden:\n--- golden\n%s--- got\n%s",
						name, i, workers, golden, got)
				}
			}
		}
	}
}

// TestRunsAreDeterministic asserts the repository-wide guarantee that
// identical inputs produce bit-identical results: every counter, span
// and timestamp must match across repeated runs, and bfs and sssp
// clusters of 2 and 4 GPUs must reproduce their committed per-GPU
// counters on one and two drain workers. The experiment tables and
// EXPERIMENTS.md rely on this.
func TestRunsAreDeterministic(t *testing.T) {
	for _, name := range []string{"bfs", "sssp"} {
		for _, n := range []int{2, 4} {
			base := config.Default()
			base.Penalty = 8
			b := workloads.MustGet(name)(0.05)
			cfg := DeriveConfig(b, n, 125, config.PolicyAdaptive, base)
			for _, workers := range []int{1, 2} {
				cfg.ClusterWorkers = workers
				checkGolden(t, fmt.Sprintf("cluster_%s_%dgpu.golden", name, n), clusterCSV(NewCluster(b, cfg, n).Run()))
			}
		}
	}
	for _, name := range []string{"sssp", "ra", "hotspot"} {
		cfg := config.Default()
		cfg.Penalty = 8
		a := RunWorkload(name, 0.1, 1, 125, config.PolicyAdaptive, cfg)
		b := RunWorkload(name, 0.1, 1, 125, config.PolicyAdaptive, cfg)
		if a.Counters != b.Counters {
			t.Fatalf("%s: counters differ across identical runs:\n%+v\n%+v", name, a.Counters, b.Counters)
		}
		if len(a.Spans) != len(b.Spans) {
			t.Fatalf("%s: span counts differ", name)
		}
		for i := range a.Spans {
			if a.Spans[i] != b.Spans[i] {
				t.Fatalf("%s: span %d differs: %+v vs %+v", name, i, a.Spans[i], b.Spans[i])
			}
		}
	}
}

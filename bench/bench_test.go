package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) (string, *spec) {
	t.Helper()
	root, sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return root, sp
}

// smokeRun measures one workload at smoke size in this process.
func smokeRun(t *testing.T, workload string, trace int, seed uint64, spin time.Duration) *result {
	t.Helper()
	root, sp := testSpec(t)
	var stderr bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 1, trace: trace, smoke: true, spin: spin}
	res, err := measure(o, root, sp, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d checks failed\n%s", workload, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

// TestSmoke runs every workload at smoke size, untraced and (unless
// -short) traced, and checks every output against the committed smoke
// checksums.
func TestSmoke(t *testing.T) {
	_, sp := testSpec(t)
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, 0, defaultSeed, 0)
			for _, m := range sp.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			if testing.Short() {
				return
			}
			res = smokeRun(t, w.name, 1, defaultSeed+1, 0)
			if c := res.Metrics["trace.coverage"].Value; c < 0.95 {
				t.Errorf("trace.coverage = %.3f, want >= 0.95", c)
			}
		})
	}
}

// TestCompareNamesSlowLayer slows the planner in traced runs and checks
// that -compare reports mm.planner_self_s as worse and does not blame the
// fast path.
func TestCompareNamesSlowLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs skipped in -short mode")
	}
	_, sp := testSpec(t)
	const workload = "ra-evict"
	base := runsFile{Trace: 1, Runs: map[string][]result{}}
	slow := runsFile{Trace: 1, Runs: map[string][]result{}}
	for rep := 0; rep < 5; rep++ {
		base.Runs[workload] = append(base.Runs[workload], *smokeRun(t, workload, 1, defaultSeed, 0))
		slow.Runs[workload] = append(slow.Runs[workload], *smokeRun(t, workload, 1, defaultSeed, 10*time.Microsecond))
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for i, doc := range []runsFile{base, slow} {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := runCompare(paths[0], paths[1], sp, &stdout, &stderr); code != 1 {
		t.Fatalf("compare exit %d, want 1 (a metric is worse)\n%s%s", code, stdout.String(), stderr.String())
	}
	verdicts := make(map[string]string)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == workload {
			verdicts[f[1]] = f[2]
		}
	}
	if v := verdicts["mm.planner_self_s"]; v != "worse" {
		t.Errorf("mm.planner_self_s: %q, want worse\n%s", v, stdout.String())
	}
	if v := verdicts["uvm.fast_self_s"]; v == "worse" || v == "" {
		t.Errorf("uvm.fast_self_s: %q, want a verdict other than worse\n%s", v, stdout.String())
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		a, b  []float64
		lower bool
		want  string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10, 9.8}, true, "same"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.5, 11.9}, true, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.2, 7.9}, true, "better"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.5, 11.9}, false, "better"},
		{[]float64{5, 10, 15, 20}, []float64{12, 13, 11, 14}, true, "unresolved"},
		{[]float64{5, 10, 15, 20}, []float64{30, 31, 32, 33}, true, "worse"},
		{[]float64{0, 0}, []float64{0, 0}, true, "same"},
	} {
		if got := verdict(tc.a, tc.b, tc.lower, 0.1); got != tc.want {
			t.Errorf("verdict(%v, %v, lower=%v) = %s, want %s", tc.a, tc.b, tc.lower, got, tc.want)
		}
	}
}

// TestStreamFromSeed checks that the simd stream is a function of the
// seed, opens with every request once, and repeats each request a fixed
// number of times whatever the seed.
func TestStreamFromSeed(t *testing.T) {
	s := newSimd(params{}).(*simd)
	reqs, _, err := s.requests()
	if err != nil {
		t.Fatal(err)
	}
	n := len(reqs)
	a := makeStream(7, n, s.warmRepeats)
	if !slices.Equal(a, makeStream(7, n, s.warmRepeats)) {
		t.Fatal("same seed, different streams")
	}
	b := makeStream(8, n, s.warmRepeats)
	if slices.Equal(a, b) {
		t.Fatal("different seeds, same stream")
	}
	for i := 0; i < n; i++ {
		if a[i] != i {
			t.Fatalf("job %d asks for request %d; the stream must open with every request once", i, a[i])
		}
	}
	count := func(stream []int) map[int]int {
		c := make(map[int]int)
		for _, r := range stream {
			c[r]++
		}
		return c
	}
	if ca, cb := count(a), count(b); !maps.Equal(ca, cb) || len(ca) != n || ca[0] != 1+s.warmRepeats {
		t.Fatalf("the seed changed how often requests repeat: %v vs %v", ca, cb)
	}
	if 20*n < len(a) {
		t.Errorf("%d cold jobs of %d, want at least 1 in 20 so that the 95th percentile falls among them", n, len(a))
	}
	if len(a) < 400 {
		t.Errorf("%d jobs, want at least 400 so that 20 lie beyond the 95th percentile", len(a))
	}
}

// TestLintClean runs the repository's simlint analyzers over this
// package.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "uvmsim/cmd/simlint", ".")
	out, err := cmd.CombinedOutput()
	if err != nil || len(bytes.TrimSpace(out)) > 0 {
		t.Fatalf("simlint: %v\n%s", err, out)
	}
}

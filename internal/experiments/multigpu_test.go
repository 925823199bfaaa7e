package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"uvmsim/internal/obs"
)

func TestMultiGPUExperimentShape(t *testing.T) {
	tab := table(Options{Scale: 0.15, Workloads: []string{"ra"}}, "multigpu")
	if len(tab.Rows) != len(MultiGPUClusterSizes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(MultiGPUClusterSizes))
	}
	if len(tab.Columns) != 2 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r.Label, "ra x") {
			t.Fatalf("row label %q", r.Label)
		}
		runtime, thrash := r.Values[0], r.Values[1]
		if runtime <= 0 || runtime >= 1.05 {
			t.Fatalf("%s: adaptive runtime ratio %.3f, want < 1.05", r.Label, runtime)
		}
		if thrash > 1.0 {
			t.Fatalf("%s: adaptive thrash ratio %.3f, want <= 1", r.Label, thrash)
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "multi-GPU throttling") {
		t.Fatalf("missing title:\n%s", out)
	}

	// Every GPU of every cell is observed under its own run name, and
	// observing leaves the table as it was.
	var mu sync.Mutex
	names := make(map[string]bool)
	observed := table(Options{Scale: 0.15, Workloads: []string{"ra"}, Observe: func(name string) *obs.Run {
		mu.Lock()
		defer mu.Unlock()
		if names[name] {
			t.Errorf("run %q observed twice", name)
		}
		names[name] = true
		return obs.Options{Metrics: true}.NewRun(name)
	}}, "multigpu")
	var gpus int
	for _, n := range MultiGPUClusterSizes {
		gpus += n
	}
	if want := 2 * gpus; len(names) != want {
		t.Errorf("observed %d distinct run names, want %d (every GPU under both policies): %v", len(names), want, names)
	}
	if !reflect.DeepEqual(observed, tab) {
		t.Errorf("observing changed the table:\n%s\nwant:\n%s", observed.Format(), out)
	}
}

// The six cells run in parallel on the grid, so the table is the same at
// any worker count.
func TestMultiGPUWorkersIdentical(t *testing.T) {
	one := table(Options{Scale: 0.15, Workloads: []string{"ra"}, Workers: 1}, "multigpu")
	two := table(Options{Scale: 0.15, Workloads: []string{"ra"}, Workers: 2}, "multigpu")
	if !reflect.DeepEqual(one, two) {
		t.Errorf("Workers: 2 changed the table:\n%s\nwant:\n%s", two.Format(), one.Format())
	}
}

package experiments

import (
	"strings"
	"testing"
)

func TestMultiGPUExperimentShape(t *testing.T) {
	tab := MultiGPU("ra", Options{Scale: 0.15}, 125)
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
}

package experiments

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"uvmsim/internal/obs"
)

func TestProfileColdAllocations(t *testing.T) {
	// sssp's cold structures are the read-only edge-sized arrays.
	cold := ProfileColdAllocations("sssp", opts())
	want := map[string]bool{"edges": true, "weights": true}
	for _, n := range cold {
		if n == "dist" || n == "mask" {
			t.Fatalf("hot allocation %q classified cold", n)
		}
	}
	found := 0
	for _, n := range cold {
		if want[n] {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("cold set %v misses edges/weights", cold)
	}
	// fdtd is uniform: nothing is cold.
	if cold := ProfileColdAllocations("fdtd", opts()); len(cold) != 0 {
		t.Fatalf("fdtd cold set %v, want empty", cold)
	}
}

func TestOracleHintsShape(t *testing.T) {
	tab := table(opts("bfs"), "hints")
	if len(tab.Rows) != 1 || len(tab.Columns) != 3 {
		t.Fatalf("table shape wrong: %+v", tab)
	}
	hinted := value(t, tab, "bfs", 1)
	adaptive := value(t, tab, "bfs", 2)
	if hinted <= 0 || adaptive <= 0 {
		t.Fatal("missing ratios")
	}
	// Both the profiled hints and Adaptive must improve on the baseline
	// for an irregular workload under oversubscription.
	if hinted >= 1.0 {
		t.Errorf("profiled hints ratio %.3f, want < 1", hinted)
	}
	if adaptive >= 1.0 {
		t.Errorf("adaptive ratio %.3f, want < 1", adaptive)
	}
}

// Every cell of the hints figure is observed once: the profiling trace
// is the Disabled/100% cell, the baseline and Adaptive cells are Fig.
// 6's, and the hinted cell has its own tag. Observing leaves the table
// as it was.
func TestOracleHintsObservesEveryCell(t *testing.T) {
	o := opts("bfs")
	tab := table(o, "hints")
	var mu sync.Mutex
	var names []string
	o.Observe = func(name string) *obs.Run {
		mu.Lock()
		defer mu.Unlock()
		names = append(names, name)
		return obs.Options{Metrics: true}.NewRun(name)
	}
	if observed := table(o, "hints"); !reflect.DeepEqual(observed, tab) {
		t.Errorf("observing changed the table:\n%s\nwant:\n%s", observed.Format(), tab.Format())
	}
	slices.Sort(names)
	want := []string{"bfs/Adaptive/125%", "bfs/Disabled/100%", "bfs/Disabled/125%", "bfs/Disabled/125%/hinted"}
	if !slices.Equal(names, want) {
		t.Errorf("observed runs %q, want %q", names, want)
	}
}

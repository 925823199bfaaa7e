package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"uvmsim/internal/config"
)

// No cell starts from another cell's state: a bfs cell gives the same
// counters and kernel spans alone as after an ra and an sssp cell in
// the same process, whose GPUs hand their warps on through the warp
// pool. The collector is off and the test runs on one P, so the pool
// keeps every batch and the later bfs cell really runs on recycled
// warps.
func TestCellResultIndependentOfPriorCells(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(name string) *Result {
		return Run(PrepareWorkload(name, 0.05, 1, 125, config.PolicyAdaptive, config.Default()))
	}
	alone := run("bfs")
	run("ra")
	run("sssp")
	after := run("bfs")
	if after.Counters != alone.Counters {
		t.Fatalf("bfs after ra and sssp:\n%+v\nalone:\n%+v", after.Counters, alone.Counters)
	}
	if !slices.Equal(after.Spans, alone.Spans) {
		t.Fatalf("bfs spans after ra and sssp:\n%+v\nalone:\n%+v", after.Spans, alone.Spans)
	}
}

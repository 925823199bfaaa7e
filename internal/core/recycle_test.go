package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/workloads"
)

// No cell starts from another cell's state: a bfs cell gives the same
// counters and kernel spans alone as after an ra and an sssp cell, a
// thrashing ra cell at 150% and a 2-GPU sssp cluster in the same
// process, whose GPUs, drivers and engines hand their warps, waiter
// lists, block arrays, wake and migration records and slot arenas on
// through the pools. The collector is off and the test runs on one P,
// so the pools keep every store and the later bfs cell really runs on
// recycled storage.
func TestCellResultIndependentOfPriorCells(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(name string, scale float64, nGPUs int, oversub uint64) *Result {
		return RunWorkload(name, scale, nGPUs, oversub, config.PolicyAdaptive, config.Default())
	}
	alone := run("bfs", 0.05, 1, 125)
	run("ra", 0.05, 1, 125)
	run("sssp", 0.05, 1, 125)
	// At scale 0.25 ra outgrows the smallest device and thrashes.
	if thrash := run("ra", 0.25, 1, 150); thrash.Counters.EvictedPages == 0 {
		t.Fatal("the ra cell at 150% evicted nothing, so it left no dirty fault-path storage")
	}
	run("sssp", 0.05, 2, 125)
	after := run("bfs", 0.05, 1, 125)
	if after.Counters != alone.Counters {
		t.Fatalf("bfs after prior cells:\n%+v\nalone:\n%+v", after.Counters, alone.Counters)
	}
	if !slices.Equal(after.Spans, alone.Spans) {
		t.Fatalf("bfs spans after prior cells:\n%+v\nalone:\n%+v", after.Spans, alone.Spans)
	}
}

// A warm cell grows almost nothing: once a cold run of a thrashing ra
// cell has filled the pools, a repeat of it allocates at most
// warmAllocFrac of what the cold run did. Without the driver and
// slot-arena pools a repeat allocated 0.70 of a cold run, with them
// 0.29. The two forced collections empty every sync.Pool before the
// cold run; the collector is then off and the test runs on one P, so
// the pools keep what the cold run recycles.
// Skipped under the race detector, where sync.Pool drops Puts at
// random.
func TestWarmCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector")
	}
	const warmAllocFrac = 0.4
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := workloads.MustGet("ra")(0.5)
	cfg := DeriveConfig(b, 1, 150, config.PolicyAdaptive, config.Default())
	measure := func() (uint64, *Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(b, cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, res
	}
	runtime.GC()
	runtime.GC()
	cold, res := measure()
	if res.Counters.EvictedPages == 0 {
		t.Fatal("the ra cell evicted nothing: it does not thrash")
	}
	warm, _ := measure()
	if float64(warm) > warmAllocFrac*float64(cold) {
		t.Fatalf("warm cell allocated %d bytes, cold %d: %.2f of cold, want at most %.2f",
			warm, cold, float64(warm)/float64(cold), warmAllocFrac)
	}
}

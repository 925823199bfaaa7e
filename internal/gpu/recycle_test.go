package gpu

import (
	"runtime"
	"runtime/debug"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// After the first GPU's Recycle, a second GPU running the same kernel
// runs entirely on the first GPU's warps: it allocates no warp, every
// warp it holds is rebound to it, and it reaches the same cycle and
// counters. The collector is off and the test runs on one P, so the
// pool keeps the batch until the second GPU takes it.
func TestWarpsOutliveTheirCell(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for warpPool.Get() != nil { // start from an empty pool
	}

	run := func() (*GPU, sim.Cycle, stats.Counters) {
		eng := sim.NewEngine()
		var st stats.Counters
		g := New(eng, config.Default(), &fastBackend{eng: eng}, &st)
		end := g.RunSync(Kernel{
			Name:        "recycle",
			CTAs:        64,
			WarpsPerCTA: 4,
			NewWarp: func(cta, w int) WarpProgram {
				return &allocProg{left: 16, base: memunits.Addr(cta*4+w) << 20}
			},
		})
		return g, end, st
	}
	g1, end1, st1 := run()
	first := make(map[*warp]bool, len(g1.warpFree))
	for _, w := range g1.warpFree {
		first[w] = true
	}
	if len(first) == 0 {
		t.Fatal("the first GPU left no idle warps")
	}
	g1.Recycle()
	if len(g1.warpFree) != 0 {
		t.Fatalf("Recycle left %d warps on the GPU", len(g1.warpFree))
	}

	g2, end2, st2 := run()
	if end2 != end1 || st2 != st1 {
		t.Fatalf("recycled warps changed the run: cycle %d vs %d, counters %+v vs %+v", end2, end1, st2, st1)
	}
	if len(g2.warpFree) != len(first) {
		t.Fatalf("second GPU holds %d warps, the first recycled %d", len(g2.warpFree), len(first))
	}
	for _, w := range g2.warpFree {
		if !first[w] {
			t.Fatal("second GPU allocated a warp")
		}
		if w.g != g2 {
			t.Fatal("a recycled warp still points at its old GPU")
		}
	}
}

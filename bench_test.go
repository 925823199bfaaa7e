// Benchmarks regenerating every table and figure of the paper's
// evaluation (one testing.B benchmark per artifact), plus
// microbenchmarks of the simulator substrates.
//
// The figure benchmarks run their full sweep once per b.N iteration at a
// reduced workload scale (benchScale) so `go test -bench=.` completes in
// minutes; `cmd/paperbench -scale 1.0` runs the same sweeps at paper
// size. Each benchmark reports the figure's headline ratio as a custom
// metric so regressions in *shape*, not just speed, are visible.
package uvmsim

import (
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
)

// benchScale keeps figure sweeps tractable under `go test -bench`.
const benchScale = 0.25

func benchOpts() ExperimentOptions { return ExperimentOptions{Scale: benchScale} }

// BenchmarkTable1 regenerates Table I (configuration rendering).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Table1(DefaultConfig())) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: oversubscription sensitivity of
// all eight workloads under the baseline. Reports the 125% slowdown of
// one regular and one irregular workload.
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Fig1(benchOpts())
		reg, _ := t.Get("fdtd", 1)
		irr, _ := t.Get("ra", 1)
		b.ReportMetric(reg, "fdtd-125%-slowdown")
		b.ReportMetric(irr, "ra-125%-slowdown")
	}
}

// BenchmarkFig2 regenerates Figure 2: the per-allocation access
// frequency characterization of fdtd and sssp.
func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"fdtd", "sssp"} {
			if len(Fig2(w, benchOpts())) == 0 {
				b.Fatal("empty characterization")
			}
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: access-pattern samples for fdtd
// iterations 2 and 4 and sssp iterations 3 and 5.
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := Fig3("fdtd", benchOpts(), []int{2, 4}, 256)
		s := Fig3("sssp", benchOpts(), []int{3, 5}, 256)
		if len(f) != 2 || len(s) != 2 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: static-threshold sensitivity under
// the Always scheme at 125% oversubscription.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Fig4(benchOpts())
		v, _ := t.Get("sssp", 2)
		b.ReportMetric(v, "sssp-ts32-vs-ts8")
	}
}

// BenchmarkFig5 regenerates Figure 5: the three schemes under no
// oversubscription. Reports Adaptive's ratio to baseline for sssp,
// which the paper expects near 1.0.
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Fig5(benchOpts())
		v, _ := t.Get("sssp", 2)
		b.ReportMetric(v, "sssp-adaptive-vs-baseline")
	}
}

// BenchmarkFig6And7 regenerates Figures 6 and 7 from one sweep: runtime
// and thrashing of all four schemes at 125% oversubscription. Reports
// the Adaptive runtime and thrash ratios for ra (the paper's strongest
// case).
func BenchmarkFig6And7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, th := Fig6And7(benchOpts())
		r, _ := rt.Get("ra", 3)
		t, _ := th.Get("ra", 3)
		b.ReportMetric(r, "ra-adaptive-runtime")
		b.ReportMetric(t, "ra-adaptive-thrash")
	}
}

// BenchmarkFig8 regenerates Figure 8: penalty sensitivity under
// Adaptive. Reports nw's ratio at the giant penalty (p=2^20), which the
// paper expects to collapse.
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Fig8(benchOpts())
		v, _ := t.Get("nw", 4)
		b.ReportMetric(v, "nw-p2^20-vs-baseline")
	}
}

// BenchmarkAblationEvictionGranularity compares 2MB against 64KB
// eviction granularity (Table I lists both) for an irregular workload
// under the baseline policy.
func BenchmarkAblationEvictionGranularity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := BuildWorkload("nw", benchScale)
		coarse := DefaultConfig().WithOversubscription(w.WorkingSet(), 125)
		r2m := Run(w, coarse)
		fine := coarse
		fine.EvictionGranularity = 64 << 10
		r64k := Run(BuildWorkload("nw", benchScale), fine)
		b.ReportMetric(float64(r64k.Runtime())/float64(r2m.Runtime()), "nw-64k-vs-2m")
	}
}

// BenchmarkAblationPrefetcher compares the tree prefetcher against the
// none/sequential ablations on a regular workload at 125%
// oversubscription (the tree prefetcher is the paper's §II-B baseline
// infrastructure). Note a known fidelity limit (DESIGN.md §7): with
// unbounded fault batching and a single concurrent warp wave, demand
// faults are raised before any prefetch can preempt them, so the
// prefetchers differ mainly in batching and transfer granularity rather
// than fault count; expect ratios near 1 at small scales.
func BenchmarkAblationPrefetcher(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var times [3]uint64
		var batches [3]uint64
		for k, pf := range []PrefetcherKind{PrefetchTree, PrefetchNone, PrefetchSequential} {
			w := BuildWorkload("fdtd", benchScale)
			cfg := DefaultConfig().WithOversubscription(w.WorkingSet(), 125)
			cfg.Prefetcher = pf
			res := Run(w, cfg)
			times[k] = res.Runtime()
			batches[k] = res.Counters.FaultBatches
		}
		b.ReportMetric(float64(times[1])/float64(times[0]), "none-vs-tree")
		b.ReportMetric(float64(times[2])/float64(times[0]), "seq-vs-tree")
		b.ReportMetric(float64(batches[1])/float64(batches[0]), "none-vs-tree-batches")
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkEngineSchedule measures the enqueue half of the event queue
// in isolation: pure Schedule cost with periodic drains to bound heap
// size. Steady state must be allocation-free (see engine_alloc_test.go
// for the hard assertion).
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(uint64(i%512), fn)
		if eng.Pending() > 8192 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkEngineRun measures the schedule+dispatch round trip: every
// iteration enqueues one event and the engine steps whenever more than
// 1024 are pending, so the cost includes timing-wheel bucket dispatch
// and slot recycling.
func BenchmarkEngineRun(b *testing.B) {
	eng := sim.NewEngine()
	var fired int
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(uint64(i%64), fn)
		for eng.Pending() > 1024 {
			eng.Step()
		}
	}
	eng.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkEngineFarEvents is BenchmarkEngineRun with one event in 500
// scheduled 67,000 cycles ahead, the order of the far-fault service
// time. Those events land beyond the timing wheel's window, so the cost
// includes the overflow heap's push, pop and refill into the wheel.
func BenchmarkEngineFarEvents(b *testing.B) {
	eng := sim.NewEngine()
	var fired int
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delay := uint64(i % 64)
		if i%500 == 0 {
			delay = 67000
		}
		eng.After(delay, fn)
		for eng.Pending() > 1024 {
			eng.Step()
		}
	}
	eng.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkEngineEvents measures raw event-queue throughput.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	var fired int
	for i := 0; i < b.N; i++ {
		eng.After(uint64(i%64), func() { fired++ })
		for eng.Pending() > 1024 {
			eng.Step()
		}
	}
	eng.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkDriverNearAccess measures the resident fast path, the
// dominant operation of every simulation.
func BenchmarkDriverNearAccess(b *testing.B) {
	eng := sim.NewEngine()
	space := alloc.NewSpace()
	a := space.Alloc("t", 2<<20, false)
	d := uvm.New(eng, config.Default(), space)
	// Fault the chunk in first.
	done := false
	d.Access(a.Base, false, func() { done = true })
	eng.Run()
	if !done {
		b.Fatal("warmup did not complete")
	}
	for blk := uint64(0); blk < 32; blk++ {
		d.Access(a.Base+blk*(64<<10), false, func() {})
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a.Base + uint64(i%16384)*128
		if _, ok := d.TryFastAccess(addr, i%4 == 0); !ok {
			b.Fatal("fast path missed")
		}
	}
}

// BenchmarkTreePrefetcher measures the OnMigrate heuristic.
func BenchmarkTreePrefetcher(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := prefetch.NewTree(32)
		for leaf := 0; leaf < 32 && !tr.Full(); leaf += 3 {
			tr.OnMigrate(leaf)
		}
	}
}

// BenchmarkCoalescer measures warp instruction coalescing through a
// minimal GPU run (32 divergent lanes per instruction).
func BenchmarkCoalescer(b *testing.B) {
	b.ReportAllocs()
	cfg := config.Default()
	cfg.NumSMs = 1
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		st := &stats.Counters{}
		g := gpu.New(eng, cfg, fastMem{eng}, st)
		g.RunSync(gpu.Kernel{
			Name: "coal", CTAs: 4, WarpsPerCTA: 8,
			NewWarp: func(cta, w int) gpu.WarpProgram {
				return &divergentProgram{count: 64, seed: uint64(cta*8 + w)}
			},
		})
	}
}

// fastMem serves everything synchronously at fixed latency.
type fastMem struct{ eng *sim.Engine }

func (m fastMem) TryFastAccess(addr uint64, write bool) (uint64, bool) {
	return m.eng.Now() + 100, true
}
func (m fastMem) Access(addr uint64, write bool, done func()) { m.eng.After(100, done) }

// divergentProgram emits fully divergent 32-lane instructions.
type divergentProgram struct {
	count int
	seed  uint64
	pos   int
}

// Next implements gpu.WarpProgram.
func (p *divergentProgram) Next(in *gpu.Instr) bool {
	if p.pos >= p.count {
		return false
	}
	p.pos++
	in.Compute = 2
	in.Write = p.pos%2 == 0
	in.NumAddrs = 32
	for l := 0; l < 32; l++ {
		p.seed = p.seed*6364136223846793005 + 1442695040888963407
		in.Addrs[l] = (p.seed >> 16) % (1 << 30)
	}
	return true
}

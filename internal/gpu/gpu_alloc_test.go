package gpu

import (
	"math/rand"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// allocProg replays a fixed stream of divergent memory instructions;
// resettable by setting left, so one program object serves many kernel
// launches without reallocation.
type allocProg struct {
	left int
	base memunits.Addr
}

func (p *allocProg) Next(instr *Instr) bool {
	if p.left == 0 {
		return false
	}
	p.left--
	instr.Compute = 1
	instr.Write = p.left%3 == 0
	instr.NumAddrs = MaxLanes
	for i := 0; i < MaxLanes; i++ {
		// Scrambled lane order with duplicates: exercises the coalescer's
		// sorting network and dedup, not just the pre-sorted fast path.
		lane := (i * 7) % MaxLanes
		instr.Addrs[i] = p.base + memunits.Addr(lane/2)*memunits.SectorSize
	}
	return true
}

// fastBackend serves most sectors synchronously and every eighth one
// asynchronously, so both the fast path and the prebound sector
// completion callback run under the allocation counter.
type fastBackend struct{ eng *sim.Engine }

func (b *fastBackend) TryFastAccess(addr memunits.Addr, write bool) (sim.Cycle, bool) {
	if addr/memunits.SectorSize%8 == 0 {
		return 0, false
	}
	return b.eng.Now() + 4, true
}

func (b *fastBackend) Access(addr memunits.Addr, write bool, done func()) {
	b.eng.After(8, done)
}

// runBackendStub adds the dense-run entry point, steering issueMemory
// through its batched same-block slice path.
type runBackendStub struct{ fastBackend }

func (b *runBackendStub) TryFastAccessRun(addrs []memunits.Addr, write bool) (sim.Cycle, bool) {
	return b.eng.Now() + sim.Cycle(len(addrs)), true
}

// runSteadyState launches the same kernel repeatedly on one GPU and
// asserts that, once the warp/CTA pools and the engine arena are warm,
// a whole kernel — dispatch, batched compute, coalescing, memory issue,
// retirement — allocates nothing.
func runSteadyState(t *testing.T, eng *sim.Engine, mem MemoryBackend) {
	t.Helper()
	var st stats.Counters
	g := New(eng, config.Default(), mem, &st)

	progs := make([]*allocProg, 8)
	for i := range progs {
		progs[i] = &allocProg{base: memunits.Addr(i) << 20}
	}
	k := Kernel{
		Name:        "alloc-steady",
		CTAs:        4,
		WarpsPerCTA: 2,
		NewWarp:     func(cta, w int) WarpProgram { return progs[cta*2+w] },
	}
	kernels := 0
	onDone := func(sim.Cycle) { kernels++ }
	run := func() {
		for _, p := range progs {
			p.left = 32
		}
		g.Launch(k, onDone)
		eng.Run()
	}
	run()
	run() // warm the pools and the engine arena

	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Fatalf("steady-state kernel allocated %.1f times per run, want 0", allocs)
	}
	if kernels < 52 {
		t.Fatalf("only %d kernels completed", kernels)
	}
	if st.MemInstructions == 0 {
		t.Fatal("no memory instructions issued")
	}
}

// TestKernelSteadyStateZeroAllocsPerSector covers the per-sector
// TryFastAccess/Access issue loop.
func TestKernelSteadyStateZeroAllocsPerSector(t *testing.T) {
	eng := sim.NewEngine()
	runSteadyState(t, eng, &fastBackend{eng: eng})
}

// TestKernelSteadyStateZeroAllocsDenseRun covers the batched
// TryFastAccessRun slice path the coalescer feeds with sorted
// same-block sector runs.
func TestKernelSteadyStateZeroAllocsDenseRun(t *testing.T) {
	eng := sim.NewEngine()
	runSteadyState(t, eng, &runBackendStub{fastBackend{eng: eng}})
}

// TestCoalesceRandomGatherZeroAllocs coalesces 32-lane gathers of random
// sectors, ra's access pattern, which take the sorting network: the
// masking pass, the network and the dedup allocate nothing.
func TestCoalesceRandomGatherZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, w := &GPU{}, &warp{}
	var nsec int
	allocs := testing.AllocsPerRun(100, func() {
		w.instr.NumAddrs = MaxLanes
		for i := range w.instr.Addrs {
			w.instr.Addrs[i] = memunits.Addr(rng.Int63n(1 << 34))
		}
		g.coalesce(w)
		nsec = w.nsec
	})
	if allocs != 0 {
		t.Fatalf("coalescing a random 32-lane gather allocated %.1f times, want 0", allocs)
	}
	if nsec <= netThreshold {
		t.Fatalf("a random gather kept %d sectors, want more than the network threshold %d", nsec, netThreshold)
	}
}

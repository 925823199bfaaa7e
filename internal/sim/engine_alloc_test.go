package sim

import "testing"

// TestEngineSteadyStateZeroAllocs asserts the hot-path contract of the
// queue overhaul: once the heap slice, ring and slot arena have reached
// their high-water capacity, Schedule and dispatch perform zero heap
// allocations. (The event closures themselves are allocated by the
// caller; here a single prebound closure is reused.)
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	var fired int
	fn := func() { fired++ }

	// Warm the arena and heap capacity.
	for i := 0; i < 4096; i++ {
		e.After(Cycle(i%97), fn)
	}
	e.Run()

	const batch = 1024
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.After(Cycle(i%97), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestEngineSameCycleZeroAllocs exercises the same-cycle ring path under
// AllocsPerRun: events rescheduling at the current cycle must not
// allocate either.
func TestEngineSameCycleZeroAllocs(t *testing.T) {
	e := NewEngine()
	var depth int
	var chain func()
	chain = func() {
		if depth > 0 {
			depth--
			e.After(0, chain)
		}
	}
	// Warm.
	depth = 256
	e.After(1, chain)
	e.Run()

	allocs := testing.AllocsPerRun(100, func() {
		depth = 128
		e.After(1, chain)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("same-cycle ring path allocated %.1f times per run, want 0", allocs)
	}
}

// countHandler is a typed event that reschedules itself depth times at
// the current cycle and otherwise counts its firings.
type countHandler struct {
	e     *Engine
	fired int
	depth int
}

func (h *countHandler) Fire() {
	h.fired++
	if h.depth > 0 {
		h.depth--
		h.e.Schedule(h.e.Now(), h)
	}
}

// TestEngineHandlerZeroAllocs is the typed-handler counterpart of the
// two tests above: once warmed, scheduling a pointer Handler through
// Schedule, both ahead of the clock and at the current cycle, and
// dispatching it allocate nothing. The interface holds the pointer
// itself, so there is no adapter object.
func TestEngineHandlerZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &countHandler{e: e}

	// Warm the arena and heap capacity.
	for i := 0; i < 4096; i++ {
		e.Schedule(e.Now()+Cycle(i%97), h)
	}
	h.depth = 256
	e.Run()

	const batch = 1024
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.Schedule(e.Now()+Cycle(i%97), h)
		}
		h.depth = 128
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handler Schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if h.fired == 0 {
		t.Fatal("no events fired")
	}
}

// linkStream is a typed far event modelled on a saturated link's
// completions: each firing schedules the stream's next completion a
// window or more ahead and no earlier than the previous one, so its
// events arrive in cycle order, as the overflow runs expect.
type linkStream struct {
	e    *Engine
	gap  Cycle // cycles between the stream's completions
	end  Cycle // the latest completion scheduled
	left int   // firings that still schedule a successor
}

func (s *linkStream) push() {
	s.end = max(s.end+s.gap, s.e.Now()+wheelSize)
	s.e.Schedule(s.end, s)
}

func (s *linkStream) Fire() {
	if s.left > 0 {
		s.left--
		s.push()
	}
}

// TestEngineFarEventsZeroAllocs extends the zero-allocation contract to
// far events: once three interleaved link streams have warmed the run
// rings and the heap, scheduling completions at least a window ahead,
// refilling them into the wheel and dispatching them allocate nothing.
func TestEngineFarEventsZeroAllocs(t *testing.T) {
	e := NewEngine()
	streams := []*linkStream{{e: e, gap: 17}, {e: e, gap: 40}, {e: e, gap: 91}}
	load := func(depth int) {
		for _, s := range streams {
			s.end, s.left = e.Now(), depth
			for i := 0; i < 64; i++ { // completions in flight per stream
				s.push()
			}
		}
		e.Run()
	}
	load(4096) // warm the rings and the heap
	before := e.Fired()
	allocs := testing.AllocsPerRun(100, func() { load(1024) })
	if allocs != 0 {
		t.Fatalf("steady-state far Schedule+refill+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if e.Fired() == before || len(e.runs[0].buf) == 0 {
		t.Fatal("no far events went through the overflow runs")
	}
}

package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refItem / refHeap are the pre-overhaul container/heap event queue,
// kept verbatim as the executable specification of dispatch order: the
// production engine must match it event-for-event under any schedule
// and step sequence.
type refItem struct {
	at  Cycle
	seq uint64
	fn  Event
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refEngine mirrors the Engine API over refHeap.
type refEngine struct {
	now   Cycle
	seq   uint64
	queue refHeap
}

func (e *refEngine) schedule(at Cycle, fn Event) {
	e.seq++
	heap.Push(&e.queue, refItem{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := heap.Pop(&e.queue).(refItem)
	e.now = it.at
	it.fn()
	return true
}

func (e *refEngine) advanceTo(at Cycle) {
	if at > e.now {
		e.now = at
	}
}

// orderHandler is a typed event: it records its tag when fired.
type orderHandler struct {
	order *[]uint64
	seq   uint64
}

func (h *orderHandler) Fire() { *h.order = append(*h.order, h.seq) }

// farFaultDelay is the order of the model's far-fault service time, the
// one delay class that regularly lands beyond the wheel window.
const farFaultDelay = 67000

// TestEngineMatchesReference drives the production engine and the
// reference queue through identical randomized schedule/step sequences
// and asserts the fired event sequences and clocks are identical. The
// delays cover same-cycle bursts, the wheel window's edges
// (wheelSize-1, wheelSize, wheelSize+1), several windows ahead
// (k*wheelSize+r) and the far-fault class, so chains wrap the window and
// events refill from the overflow heap; drains followed by AdvanceTo
// jump the clock several windows ahead of the last event. Each event
// goes through Schedule with a typed handler or through At or After
// with a func, at random: both kinds share one (at, seq) order.
func TestEngineMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := NewEngine()
		ref := &refEngine{}

		var gotOrder, wantOrder []uint64

		// Both sides tag events with the reference's next sequence
		// number, which follows scheduling order.
		doSchedule := func() {
			var delay Cycle
			switch rng.Intn(10) {
			case 0:
				delay = 0 // same-cycle: lands in the current bucket mid-run
			case 1:
				delay = Cycle(rng.Intn(4))
			case 2, 3, 4:
				delay = Cycle(rng.Intn(1000))
			case 5:
				delay = wheelSize - 1 + Cycle(rng.Intn(3)) // the window edge
			case 6:
				delay = Cycle(1+rng.Intn(4))*wheelSize + Cycle(rng.Intn(wheelSize))
			case 7:
				delay = farFaultDelay
			default:
				delay = Cycle(rng.Intn(wheelSize))
			}
			at := eng.Now() + delay
			seq := ref.seq + 1
			switch rng.Intn(3) {
			case 0:
				eng.Schedule(at, &orderHandler{order: &gotOrder, seq: seq})
			case 1:
				eng.At(at, func() { gotOrder = append(gotOrder, seq) })
			default:
				eng.After(delay, func() { gotOrder = append(gotOrder, seq) })
			}
			ref.schedule(at, func() { wantOrder = append(wantOrder, seq) })
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 50:
				doSchedule()
			case r < 97:
				g := eng.Step()
				w := ref.step()
				if g != w {
					t.Fatalf("trial %d: Step availability diverged: engine %v ref %v", trial, g, w)
				}
				if g && eng.Now() != ref.now {
					t.Fatalf("trial %d: clocks diverged after step: engine %d ref %d", trial, eng.Now(), ref.now)
				}
			default:
				// Barrier alignment: drain, then jump several windows.
				for eng.Step() {
				}
				for ref.step() {
				}
				if eng.Now() != ref.now {
					t.Fatalf("trial %d: clocks diverged after drain: engine %d ref %d", trial, eng.Now(), ref.now)
				}
				to := ref.now + Cycle(2+rng.Intn(4))*wheelSize + Cycle(rng.Intn(wheelSize))
				eng.AdvanceTo(to)
				ref.advanceTo(to)
			}
			if eng.Pending() != len(ref.queue) {
				t.Fatalf("trial %d: pending diverged: engine %d ref %d", trial, eng.Pending(), len(ref.queue))
			}
		}
		// Drain both.
		for eng.Step() {
		}
		for ref.step() {
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: dispatch order diverged at %d: engine fired seq %d, reference seq %d\nengine: %v\nref:    %v",
					trial, i, gotOrder[i], wantOrder[i], gotOrder, wantOrder)
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("trial %d: final clocks diverged: engine %d ref %d", trial, eng.Now(), ref.now)
		}
	}
}

// TestEngineFIFOAcrossRingAndHeap pins the ordering contract the ring
// optimization must preserve: events already in the heap for cycle T
// fire before events scheduled for T while the clock is at T, in
// scheduling order throughout.
func TestEngineFIFOAcrossRingAndHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	// Two heap entries for cycle 10, scheduled at cycle 0.
	e.At(10, func() {
		order = append(order, 0)
		// Ring entries created while now == 10.
		e.After(0, func() { order = append(order, 2) })
		e.At(10, func() {
			order = append(order, 3)
			e.After(0, func() { order = append(order, 4) })
		})
	})
	e.At(10, func() { order = append(order, 1) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ring/heap interleave broke FIFO order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5: %v", len(order), order)
	}
}

// runPaths records which overflow-run paths a test reached.
type runPaths struct {
	appended bool // a far event joined a run that already held entries
	reused   bool // a run that had drained took a new entry in its old storage
	wrapped  bool // a ring stored an entry in a slot a pop had freed
	grown    bool // a ring whose head had moved grew and unwrapped its entries
	heap     bool // a far event fit no run and went to the heap
	adopted  bool // a new engine's run took storage a finished engine recycled
}

// runWatch reads one engine's paths off its runs and heap, comparing
// each call's state with the previous one's.
type runWatch struct {
	paths    *runPaths
	recycled map[*entry]bool // first elements of the rings recycled before this engine
	drained  [numRuns]bool
	lastLen  [numRuns]int
	lastHead [numRuns]uint32
	lastHeap int
}

func (w *runWatch) observe(e *Engine) {
	for i := range e.runs {
		r := &e.runs[i]
		switch {
		case r.n == 0 && len(r.buf) > 0:
			w.drained[i] = true
		case r.n > 0 && w.drained[i] && len(r.buf) == w.lastLen[i]:
			w.paths.reused = true
			w.drained[i] = false
		}
		if r.n > 1 {
			w.paths.appended = true
		}
		if len(r.buf) > 0 && w.recycled[unsafe.SliceData(r.buf)] {
			w.paths.adopted = true
		}
		if r.n > 0 && int(r.head+r.n) > len(r.buf) {
			w.paths.wrapped = true
		}
		if w.lastLen[i] > 0 && len(r.buf) > w.lastLen[i] && w.lastHead[i] != 0 {
			w.paths.grown = true
		}
		w.lastLen[i], w.lastHead[i] = len(r.buf), r.head
	}
	if len(e.heap) > w.lastHeap {
		w.paths.heap = true
	}
	w.lastHeap = len(e.heap)
}

// TestEngineOverflowRunsMatchReference drives the engine and the
// reference queue with the traffic the overflow runs exist for: far
// completions from two or three interleaved link-like streams, each
// monotone in cycle, mixed with random far delays that break the runs'
// order and random near events. The fired order and clocks must match
// the reference event for event, and the trials together must reach
// every run path: appending to a run, a drained run taking new entries
// in its old storage, a ring reusing freed slots, a wrapped ring
// growing, the heap fallback when no run fits, and a new engine taking
// the ring storage the previous trial's engine recycled.
func TestEngineOverflowRunsMatchReference(t *testing.T) {
	var paths runPaths
	recycled := map[*entry]bool{}
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := NewEngine()
		ref := &refEngine{}
		watch := runWatch{paths: &paths, recycled: recycled}
		var gotOrder, wantOrder []uint64
		streams := make([]Cycle, 2+rng.Intn(2))

		schedule := func(at Cycle) {
			seq := ref.seq + 1
			eng.Schedule(at, &orderHandler{order: &gotOrder, seq: seq})
			ref.schedule(at, func() { wantOrder = append(wantOrder, seq) })
			watch.observe(eng)
		}
		for op := 0; op < 3000; op++ {
			now := eng.Now()
			// Phases of 400 operations alternate between filling the
			// queue and draining it, so rings fill past their first
			// capacity after their heads have moved.
			stepPct := 30
			if op/400%2 == 1 {
				stepPct = 70
			}
			switch r := rng.Intn(100); {
			case r >= stepPct:
				switch c := rng.Intn(10); {
				case c < 6:
					// A link completion: its stream's queue end moves
					// on by one transfer, or restarts a window or more
					// ahead of an idle link.
					s := rng.Intn(len(streams))
					streams[s] = max(streams[s]+Cycle(rng.Intn(300)), now+wheelSize+Cycle(rng.Intn(2*wheelSize)))
					schedule(streams[s])
				case c < 7:
					schedule(now + wheelSize + Cycle(rng.Intn(8*wheelSize)))
				default:
					schedule(now + Cycle(rng.Intn(wheelSize)))
				}
			default:
				g, w := eng.Step(), ref.step()
				if g != w {
					t.Fatalf("trial %d: Step availability diverged: engine %v ref %v", trial, g, w)
				}
				if g && eng.Now() != ref.now {
					t.Fatalf("trial %d: clocks diverged after step: engine %d ref %d", trial, eng.Now(), ref.now)
				}
				watch.observe(eng)
			}
			if eng.Pending() != len(ref.queue) {
				t.Fatalf("trial %d: pending diverged: engine %d ref %d", trial, eng.Pending(), len(ref.queue))
			}
		}
		for eng.Step() {
			watch.observe(eng)
		}
		for ref.step() {
		}
		if !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("trial %d: dispatch order diverged from the reference (%d vs %d events)", trial, len(gotOrder), len(wantOrder))
		}
		if eng.Now() != ref.now {
			t.Fatalf("trial %d: final clocks diverged: engine %d ref %d", trial, eng.Now(), ref.now)
		}
		// Hand the drained engine's ring storage to the next trial's.
		recycled = map[*entry]bool{}
		for i := range eng.runs {
			if len(eng.runs[i].buf) > 0 {
				recycled[unsafe.SliceData(eng.runs[i].buf)] = true
			}
		}
		eng.Recycle()
	}
	for _, path := range []struct {
		name string
		hit  bool
	}{
		{"append to a run", paths.appended},
		{"drained run reused", paths.reused},
		{"ring slot reclaimed", paths.wrapped},
		{"wrapped ring grown", paths.grown},
		{"heap fallback", paths.heap},
		{"recycled storage adopted", paths.adopted},
	} {
		if !path.hit {
			t.Errorf("no trial reached the %s path", path.name)
		}
	}
}

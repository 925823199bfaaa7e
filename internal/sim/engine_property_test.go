package sim

import (
	"container/heap"
	"math/rand"
	"testing"
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

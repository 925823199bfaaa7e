// Package sim provides the discrete-event simulation engine used by every
// timing model in the repository: a cycle-granular clock and a
// deterministic event queue.
//
// All simulated time is expressed in GPU core cycles (uint64). Events
// scheduled for the same cycle fire in FIFO order of scheduling, which
// makes every simulation run bit-for-bit reproducible.
//
// # Performance model
//
// The queue is a hierarchical timing wheel: a power-of-two calendar of
// bucket chains covering the cycles [base, base+wheelSize), backed by a
// three-level occupancy bitmap (find-next-occupied-bucket is a handful
// of word operations), with a 4-ary min-heap of pointer-free 24-byte
// entries as the overflow area for events beyond the window. Event
// closures live in a free-listed slot arena; bucket chains are threaded
// through the arena's next links, so a warmed engine schedules and
// dispatches events with zero heap allocations (asserted by
// engine_alloc_test.go).
//
// Determinism is structural rather than comparison-based:
//
//   - The window start (base) only moves forward, and only up to the
//     earliest chained cycle, so every bucket chain holds events of
//     exactly one cycle at a time, appended in scheduling (seq) order.
//     Draining a chain head-to-tail is therefore exact (at, seq) order.
//   - Overflow entries are moved into the wheel by refill at the moment
//     the window first covers their cycle — before any direct push can
//     target that cycle — and refill pops the heap in (at, seq) order,
//     so a refilled chain is seq-ordered too.
//
// Same-cycle pushes land in the current cycle's bucket chain, which is
// what the pre-wheel engine's FIFO ring provided, without a second
// structure.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in GPU core cycles.
type Cycle = uint64

// MaxCycle is the largest representable simulation time.
const MaxCycle Cycle = math.MaxUint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Timing-wheel geometry. The window must comfortably cover the model's
// common latencies (DMA transfers, link round trips, and the ~67k-cycle
// far-fault handling delay) so that steady-state traffic never touches
// the overflow heap; 2^17 cycles does, at a cost of 1MB of bucket
// head/tail indexes per engine, allocated once on first use.
const (
	wheelBits = 17
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	l0Words   = wheelSize / 64 // occupancy words, one bit per bucket
	l1Words   = l0Words / 64   // summary words, one bit per l0 word
)

// entry is one overflow event's heap key. It is deliberately free of
// pointers: heap sifts move entries with plain 24-byte copies and no GC
// write barriers. The closure itself lives in the slot arena.
type entry struct {
	at   Cycle
	seq  uint64
	slot int32
}

// less orders entries by (at, seq); seq is unique, so this is a strict
// total order and heap layout can never influence dispatch order.
func less(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds one pending event in the arena. next doubles as the
// free-list link and the bucket chain link; links are 1-based so that
// the zero value of Engine (free == 0) means "no free slots".
type slot struct {
	fn   Event
	at   Cycle
	next int32
}

// arity is the overflow heap fan-out. A 4-ary heap halves the depth of
// the pop-side sift at the cost of three comparisons per level, a net
// win because the children share a cache line pair.
const arity = 4

// Engine is a deterministic discrete-event simulator.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// the entire simulation is single-threaded by design so that runs are
// reproducible.
type Engine struct {
	now Cycle
	seq uint64

	// base is the wheel window start: bucket chains cover cycles
	// [base, base+wheelSize), the overflow heap everything beyond. base
	// never decreases and never passes a chained event's cycle.
	base Cycle

	// bhead/btail are 1-based arena indexes of each bucket chain's ends
	// (0 = empty), allocated lazily on the first schedule.
	bhead []int32
	btail []int32
	// occ/occ1/occ2 form the three-level occupancy bitmap over buckets.
	occ  []uint64
	occ1 []uint64
	occ2 uint64

	// heap is the 4-ary min-heap of overflow events ordered by (at, seq).
	heap []entry

	// slots is the closure arena; free is the 1-based free-list head
	// (0 = none).
	slots []slot
	free  int32

	// live counts scheduled-but-unfired events.
	live   int
	fired  uint64
	budget uint64 // optional safety cap on fired events; 0 = unlimited

	// daemon is the optional periodic observer (see SetDaemon): fn runs
	// at event boundaries, at most once per daemonEvery cycles. Because
	// it rides on real events instead of scheduling its own, it can
	// never extend a run or perturb the (at, seq) order.
	daemonEvery Cycle
	daemonNext  Cycle
	daemonFn    func()
}

// NewEngine returns an empty engine positioned at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventBudget installs a safety limit on the total number of events the
// engine will fire; Run panics when it is exceeded. A budget of 0 disables
// the limit. Simulations use this to turn accidental livelock into a
// loud failure instead of an infinite loop.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// Pending reports the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.live }

// initWheel allocates the bucket arrays on first use, keeping the
// zero-value Engine cheap until it actually schedules something.
func (e *Engine) initWheel() {
	e.bhead = make([]int32, wheelSize)
	e.btail = make([]int32, wheelSize)
	e.occ = make([]uint64, l0Words)
	e.occ1 = make([]uint64, l1Words)
	e.base = e.now
}

// allocSlot stores the event in the arena and returns its index.
//
//sim:hotpath
func (e *Engine) allocSlot(at Cycle, fn Event) int32 {
	if e.free != 0 {
		s := e.free - 1
		e.free = e.slots[s].next
		e.slots[s] = slot{fn: fn, at: at}
		return s
	}
	e.slots = append(e.slots, slot{fn: fn, at: at})
	return int32(len(e.slots) - 1)
}

// freeSlot releases slot s to the free list, dropping its closure so
// the arena never pins a fired event's captures.
//
//sim:hotpath
func (e *Engine) freeSlot(s int32) {
	e.slots[s] = slot{next: e.free}
	e.free = s + 1
}

// setOcc marks bucket idx occupied in all bitmap levels.
//
//sim:hotpath
func (e *Engine) setOcc(idx int) {
	w := idx >> 6
	e.occ[w] |= 1 << uint(idx&63)
	e.occ1[w>>6] |= 1 << uint(w&63)
	e.occ2 |= 1 << uint(w>>6)
}

// clearOcc unmarks bucket idx, propagating emptiness up the levels.
//
//sim:hotpath
func (e *Engine) clearOcc(idx int) {
	w := idx >> 6
	e.occ[w] &^= 1 << uint(idx&63)
	if e.occ[w] != 0 {
		return
	}
	e.occ1[w>>6] &^= 1 << uint(w&63)
	if e.occ1[w>>6] == 0 {
		e.occ2 &^= 1 << uint(w>>6)
	}
}

// findOccFrom returns the lowest occupied bucket index >= pos, or -1.
//
//sim:hotpath
func (e *Engine) findOccFrom(pos int) int {
	w := pos >> 6
	if m := e.occ[w] & (^uint64(0) << uint(pos&63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	w1 := w >> 6
	// In Go a shift count >= 64 yields 0, so the r == 64 edge (last word
	// of the group) falls out naturally.
	if m := e.occ1[w1] & (^uint64(0) << uint(w&63+1)); m != 0 {
		w = w1<<6 + bits.TrailingZeros64(m)
		return w<<6 + bits.TrailingZeros64(e.occ[w])
	}
	if m := e.occ2 & (^uint64(0) << uint(w1+1)); m != 0 {
		w1 = bits.TrailingZeros64(m)
		w = w1<<6 + bits.TrailingZeros64(e.occ1[w1])
		return w<<6 + bits.TrailingZeros64(e.occ[w])
	}
	return -1
}

// pushBucket appends arena node s (a 0-based index) to its cycle's
// bucket chain. Callers guarantee the cycle is inside the window; the
// single-cycle-per-chain invariant (see the package comment) makes the
// append position exact (at, seq) order.
//
//sim:hotpath
func (e *Engine) pushBucket(at Cycle, s int32) {
	idx := int(at & wheelMask)
	e.slots[s].next = 0
	if t := e.btail[idx]; t != 0 {
		e.slots[t-1].next = s + 1
	} else {
		e.bhead[idx] = s + 1
		e.setOcc(idx)
	}
	e.btail[idx] = s + 1
}

// popBucketHead unlinks and returns the head node of bucket idx.
//
//sim:hotpath
func (e *Engine) popBucketHead(idx int) int32 {
	h := e.bhead[idx] - 1
	nx := e.slots[h].next
	e.bhead[idx] = nx
	if nx == 0 {
		e.btail[idx] = 0
		e.clearOcc(idx)
	}
	return h
}

// refill moves overflow events whose cycle the window now covers into
// their buckets. It runs on every base advance, which is exactly the
// moment the window first covers those cycles — before any direct push
// can target them — and pops the heap in (at, seq) order, so chain
// append order remains seq order.
//
//sim:hotpath
func (e *Engine) refill() {
	for len(e.heap) > 0 && e.heap[0].at-e.base < wheelSize {
		en := e.popHeap()
		e.pushBucket(en.at, en.slot)
	}
}

// advanceBase slides the window forward to at and refills.
//
//sim:hotpath
func (e *Engine) advanceBase(at Cycle) {
	if at > e.base {
		e.base = at
		e.refill()
	}
}

// schedule enqueues fn at absolute cycle at.
//
//sim:hotpath
func (e *Engine) schedule(at Cycle, fn Event) {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%d now=%d)", at, e.now))
	}
	if e.bhead == nil {
		e.initWheel()
	}
	e.seq++
	s := e.allocSlot(at, fn)
	if at-e.base < wheelSize {
		e.pushBucket(at, s)
	} else {
		e.pushHeap(entry{at: at, seq: e.seq, slot: s})
	}
	e.live++
}

// At schedules fn to run at absolute cycle at. Scheduling in the past
// (at < Now) panics: it always indicates a model bug.
func (e *Engine) At(at Cycle, fn Event) { e.schedule(at, fn) }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.schedule(e.now+delay, fn) }

// pushHeap inserts en into the overflow heap, sifting up.
//
//sim:hotpath
func (e *Engine) pushHeap(en entry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !less(en, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = en
}

// popHeap removes and returns the minimum overflow entry.
//
//sim:hotpath
func (e *Engine) popHeap() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	en := h[n]
	e.heap = h[:n]
	if n > 0 {
		// Sift the displaced last entry down from the root.
		i := 0
		for {
			first := i*arity + 1
			if first >= n {
				break
			}
			min := first
			last := first + arity
			if last > n {
				last = n
			}
			for c := first + 1; c < last; c++ {
				if less(h[c], h[min]) {
					min = c
				}
			}
			if !less(h[min], en) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = en
	}
	return top
}

// scanWheel returns the occupied bucket holding the earliest chained
// event; ok=false when the wheel is empty.
//
//sim:hotpath
func (e *Engine) scanWheel() (idx int, at Cycle, ok bool) {
	if e.bhead == nil {
		return 0, 0, false
	}
	idx = e.findOccFrom(int(e.base & wheelMask))
	if idx < 0 {
		// The window may have wrapped: any occupied bucket below the
		// base position maps to a later cycle in the window.
		idx = e.findOccFrom(0)
	}
	if idx < 0 {
		return 0, 0, false
	}
	return idx, e.slots[e.bhead[idx]-1].at, true
}

// next dequeues the earliest pending event in (at, seq) order, or
// ok=false when the engine is drained. Every wheel cycle precedes
// every overflow cycle (the heap minimum is >= base+wheelSize by the
// refill invariant), so the wheel head, when present, is the global
// minimum. Advancing base here is safe because the caller immediately
// moves the clock to the returned cycle, so no push can land behind the
// window.
//
//sim:hotpath
func (e *Engine) next() (Cycle, Event, bool) {
	for {
		idx, at, ok := e.scanWheel()
		if !ok {
			if len(e.heap) == 0 {
				return 0, nil, false
			}
			// The wheel is drained: jump the window to the overflow
			// frontier and refill; the next iteration finds the event in
			// its bucket.
			e.advanceBase(e.heap[0].at)
			continue
		}
		// Pull the window up to the dispatch frontier so pushes reach as
		// far ahead as possible before overflowing. Refill cannot touch
		// this bucket: refilled cycles lie in [oldBase+wheelSize, at+wheelSize),
		// and the only one congruent to at is at+wheelSize itself, which
		// is out of range.
		e.advanceBase(at)
		h := e.popBucketHead(idx)
		fn := e.slots[h].fn
		e.freeSlot(h)
		return at, fn, true
	}
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
//
//sim:hotpath
func (e *Engine) Step() bool {
	at, fn, ok := e.next()
	if !ok {
		return false
	}
	e.now = at
	e.live--
	e.fired++
	if e.budget != 0 && e.fired > e.budget {
		panic(fmt.Sprintf("sim: event budget %d exceeded at cycle %d", e.budget, e.now))
	}
	fn()
	if e.daemonFn != nil && e.now >= e.daemonNext {
		e.daemonNext = e.now + e.daemonEvery
		e.daemonFn()
	}
	return true
}

// SetDaemon installs a periodic observer: fn runs after an event fires
// whenever at least `every` cycles have passed since its previous run
// (so at real event timestamps, never between or beyond them). The
// observer must not schedule events — it exists for invariant sweeps
// and metrics sampling that must leave the simulation untouched.
// SetDaemon(0, nil) uninstalls.
func (e *Engine) SetDaemon(every Cycle, fn func()) {
	if (every == 0) != (fn == nil) {
		panic("sim: SetDaemon needs both a period and a function (or neither)")
	}
	e.daemonEvery, e.daemonFn = every, fn
	e.daemonNext = e.now + every
}

// Run fires events until the queue drains and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// AdvanceTo moves the clock forward to at without firing anything; it is
// a no-op when at <= Now. Its one use is barrier alignment: a model that
// runs its partitions on private engines drains them all, then moves
// every clock to the barrier (the latest partition clock) before the
// next bulk-synchronous round. It panics if events are still pending,
// since the next Step would then move the clock backwards.
//
//sim:hotpath
func (e *Engine) AdvanceTo(at Cycle) {
	if e.live > 0 {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) with %d events pending", at, e.live))
	}
	if at > e.now {
		e.now = at
	}
}

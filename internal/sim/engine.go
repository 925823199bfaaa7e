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
// The queue is a timing wheel held inline in the Engine: a 1,024-bucket
// calendar of chains covering the cycles [now, now+wheelSize), backed
// by a two-level occupancy bitmap (find-next-occupied-bucket is a
// handful of word operations). Events beyond the window go to the
// overflow: a few sorted runs, FIFO rings of pointer-free 24-byte
// entries, in front of a 4-ary min-heap of the same entries. Far events
// mostly come off saturated link queues, each in non-decreasing cycle
// order; under thrashing they are close to half of all events (45% on
// ra at scale 16 and 150%), and a far event joins the first run whose
// last cycle is no later than its own at the cost of a store, so the
// heap and its sifts take only the few that fit no run (0.5% there).
// Pending events live in a free-listed arena of 24-byte slots, each a
// Handler (two words) and a chain link. Schedule stores a typed handler
// as is, so a model object can be its own event and dispatch reaches it
// without a separate closure; At and After adapt a func to a Handler
// without allocating (a func value is pointer-shaped). Bucket chains
// are threaded through the arena's next links, so a warmed engine
// schedules and dispatches events with zero heap allocations (asserted
// by engine_alloc_test.go). A slot does not store its cycle: the window
// starts at the clock, so a chained event's bucket index determines it.
//
// Determinism is structural rather than comparison-based:
//
//   - The window start (the clock) only moves forward and never past a
//     pending event's cycle, so every bucket chain holds events of
//     exactly one cycle at a time, appended in scheduling (seq) order.
//     Draining a chain head-to-tail is therefore exact (at, seq) order.
//   - Overflow entries are moved into the wheel by refill at the moment
//     the window first covers their cycle — before any direct push can
//     target that cycle — and refill takes them in (at, seq) order, so
//     a refilled chain is seq-ordered too. Each run is sorted by
//     (at, seq) without comparing seqs: seq grows with every Schedule,
//     so an entry whose cycle is no earlier than the run's tail sorts
//     after it. Refill merges the run heads and the heap top, whose
//     minimum the engine keeps cached.
//
// Same-cycle pushes land in the current cycle's bucket chain, which is
// what the pre-wheel engine's FIFO ring provided, without a second
// structure.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Cycle is a point in simulated time, measured in GPU core cycles.
type Cycle = uint64

// MaxCycle is the largest representable simulation time.
const MaxCycle Cycle = math.MaxUint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Handler is an event that is its own callback: Schedule stores it
// directly and Step calls its Fire method. A model object scheduled
// again and again (a warp resuming, say) implements Handler, typically
// through a named type over its own struct, instead of carrying a
// prebound closure.
type Handler interface{ Fire() }

// eventFunc adapts an Event to Handler for At and After. A func value is
// one pointer, so storing it in the interface allocates nothing.
type eventFunc Event

func (f eventFunc) Fire() { f() }

// Timing-wheel geometry. The window covers the model's common latencies
// (warp issue, cache and DRAM hits, link round trips: over 99% of events
// land at most 255 cycles ahead), so the wheel's 8KB of bucket indexes
// stays in cache. The long delays (the ~67k-cycle far-fault service
// time, and migrations and remote accesses queued behind a saturated
// link) ride the overflow runs and heap.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64 // occupancy words, one bit per bucket
)

// One summary word has a bit per occupancy word, so it covers at most
// 64 words (4,096 buckets); a larger wheel fails to compile here.
const _ uint = 64 - occWords

// entry is one overflow event's key. It is deliberately free of
// pointers: heap sifts and run rings move entries with plain 24-byte
// copies and no GC write barriers. The handler itself lives in the slot
// arena.
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
	h    Handler
	next int32
}

// bucket holds the 1-based arena indexes of one chain's ends (0 = empty).
type bucket struct{ head, tail int32 }

// arity is the overflow heap fan-out. A 4-ary heap halves the depth of
// the pop-side sift at the cost of three comparisons per level, a net
// win because the children share a cache line pair.
const arity = 4

// numRuns is how many sorted runs sit in front of the overflow heap.
// Far events mostly come from a few link queues, each of which completes
// in non-decreasing cycle order; on ra at scale 16 and 150%, greedy
// first fit puts 99.5% of them into four runs.
const numRuns = 4

// minRunCap is a run ring's first capacity; it doubles when full.
const minRunCap = 64

// run is one sorted overflow run: a FIFO ring of entries whose (at, seq)
// keys ascend from head to tail. Since seq grows with every Schedule, an
// entry whose cycle is no earlier than the tail's keeps the ring sorted.
// The ring's storage stays with the run, so a run that drains and fills
// again reuses it.
type run struct {
	buf    []entry // ring storage; its length is zero or a power of two
	head   uint32  // index of the earliest entry
	n      uint32  // entries held
	tailAt Cycle   // cycle of the latest entry, valid when n > 0
}

// push appends en, which must not sort before the tail, to a run with
// room for it.
//
//sim:hotpath
func (r *run) push(en entry) {
	r.buf[(r.head+r.n)&uint32(len(r.buf)-1)] = en
	r.n++
	r.tailAt = en.at
}

// pop removes and returns the head entry; the run must not be empty.
//
//sim:hotpath
func (r *run) pop() entry {
	en := r.buf[r.head]
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return en
}

// runStore is a finished engine's run storage, one ring per run index.
type runStore struct{ bufs [numRuns][]entry }

// runPool carries run storage from finished engines to new ones, as
// gpu.Recycle does for warps: a cell's runs start at the capacities an
// earlier cell grew instead of growing from nothing. Only capacity
// carries over; a ring's contents are never read before they are
// written.
var runPool sync.Pool

// maxPooledRun is the largest ring, in entries, that Recycle pools.
// Most cells' rings stay within 4,096 entries (96 KB), and there
// pooling saves the regrowth of every ring in every cell. A thrashing
// cell's run 0 reaches 65,536 entries (1.5 MB; ra at scale 16 and
// 150%); its growth is amortized over about a million far events, and
// pooled, such rings kept megabytes live between cells that need none:
// the next cell's set-up, which allocates right after, page-faulted
// more often.
const maxPooledRun = 4096

// Recycle hands the storage of the engine's empty runs, up to
// maxPooledRun entries each, to later engines. Call it once a run is
// over; the engine stays usable, and a run that needs storage again
// takes it from the pool or allocates it.
func (e *Engine) Recycle() {
	var st runStore
	kept := false
	for i := range e.runs {
		if r := &e.runs[i]; r.n == 0 && len(r.buf) > 0 {
			if len(r.buf) <= maxPooledRun {
				st.bufs[i] = r.buf
				kept = true
			}
			r.buf, r.head = nil, 0
		}
	}
	if kept {
		runPool.Put(&st)
	}
}

// growRun makes room in a full run. A run without storage first takes
// a recycled engine's, which also goes to this engine's other runs that
// have none; otherwise the ring doubles, its entries unwrapped to the
// front.
func (e *Engine) growRun(r *run) {
	if len(r.buf) == 0 {
		if st, ok := runPool.Get().(*runStore); ok {
			for i := range e.runs {
				if o := &e.runs[i]; len(o.buf) == 0 {
					o.buf = st.bufs[i] // a run without storage has head 0
				}
			}
		}
		if len(r.buf) > 0 {
			return
		}
	}
	buf := make([]entry, max(2*len(r.buf), minRunCap))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// the entire simulation is single-threaded by design so that runs are
// reproducible.
type Engine struct {
	// now is the clock and the wheel window start: bucket chains cover
	// cycles [now, now+wheelSize), the overflow runs and heap everything
	// beyond.
	now Cycle
	seq uint64

	// buckets holds one chain per window cycle, indexed by cycle &
	// wheelMask.
	buckets [wheelSize]bucket
	// occ has one bit per bucket, occSum one bit per occ word: the
	// two-level occupancy bitmap.
	occ    [occWords]uint64
	occSum uint64

	// runs are the sorted overflow runs, filled first fit; heap is the
	// 4-ary min-heap of overflow events, ordered by (at, seq), that fit
	// no run.
	runs [numRuns]run
	heap []entry
	// farAt is the cycle of the earliest overflow entry, or 0 when there
	// is none (an overflow cycle is at least wheelSize, so 0 is free);
	// farSrc is where that entry waits: a run index, or numRuns for the
	// heap.
	farAt  Cycle
	farSrc int

	// slots is the handler arena; free is the 1-based free-list head
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

// allocSlot stores the handler in the arena and returns its index.
//
//sim:hotpath
func (e *Engine) allocSlot(h Handler) int32 {
	if e.free != 0 {
		s := e.free - 1
		e.free = e.slots[s].next
		e.slots[s] = slot{h: h}
		return s
	}
	e.slots = append(e.slots, slot{h: h})
	return int32(len(e.slots) - 1)
}

// freeSlot releases slot s to the free list, dropping its handler so
// the arena never pins a fired event's captures.
//
//sim:hotpath
func (e *Engine) freeSlot(s int32) {
	e.slots[s] = slot{next: e.free}
	e.free = s + 1
}

// setOcc marks bucket idx occupied in both bitmap levels.
//
//sim:hotpath
func (e *Engine) setOcc(idx int) {
	w := idx >> 6
	e.occ[w] |= 1 << uint(idx&63)
	e.occSum |= 1 << uint(w)
}

// clearOcc unmarks bucket idx, clearing its summary bit when its word
// empties.
//
//sim:hotpath
func (e *Engine) clearOcc(idx int) {
	w := idx >> 6
	e.occ[w] &^= 1 << uint(idx&63)
	if e.occ[w] == 0 {
		e.occSum &^= 1 << uint(w)
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
	// In Go a shift count >= 64 yields 0, so the w == 63 edge (last
	// summary bit) falls out naturally.
	if m := e.occSum & (^uint64(0) << uint(w+1)); m != 0 {
		w = bits.TrailingZeros64(m)
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
	b := &e.buckets[idx]
	e.slots[s].next = 0
	if b.tail != 0 {
		e.slots[b.tail-1].next = s + 1
	} else {
		b.head = s + 1
		e.setOcc(idx)
	}
	b.tail = s + 1
}

// popBucketHead unlinks and returns the head node of bucket idx.
//
//sim:hotpath
func (e *Engine) popBucketHead(idx int) int32 {
	b := &e.buckets[idx]
	h := b.head - 1
	b.head = e.slots[h].next
	if b.head == 0 {
		b.tail = 0
		e.clearOcc(idx)
	}
	return h
}

// advance moves the clock, and with it the window, forward to at, then
// moves the overflow events whose cycle the window now covers into
// their buckets. That is exactly the moment the window first covers
// those cycles — before any direct push can target them — and popFar
// yields overflow events in (at, seq) order, so chain append order
// remains seq order.
//
//sim:hotpath
func (e *Engine) advance(at Cycle) {
	if at <= e.now {
		return
	}
	e.now = at
	// An empty overflow reads farAt 0, which passes the first test only
	// for a clock within wheelSize of MaxCycle.
	for e.farAt-at < wheelSize && e.farAt != 0 {
		en := e.popFar()
		e.pushBucket(en.at, en.slot)
	}
}

// Schedule enqueues h to fire at absolute cycle at. Scheduling in the
// past (at < Now) panics: it always indicates a model bug. Events
// scheduled through Schedule, At and After share one (at, seq) order.
//
//sim:hotpath
func (e *Engine) Schedule(at Cycle, h Handler) {
	if h == nil {
		panic("sim: scheduling nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%d now=%d)", at, e.now))
	}
	e.seq++
	s := e.allocSlot(h)
	if at-e.now < wheelSize {
		e.pushBucket(at, s)
	} else {
		e.pushFar(entry{at: at, seq: e.seq, slot: s})
	}
	e.live++
}

// At schedules fn to run at absolute cycle at, as Schedule does.
//
//sim:hotpath
func (e *Engine) At(at Cycle, fn Event) {
	// Checked here: a nil func inside the adapter is a non-nil Handler.
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	e.Schedule(at, eventFunc(fn))
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

// pushFar files an event beyond the window: into the first run that is
// empty or whose tail cycle is no later than en's (en's seq is the
// largest yet, so the run stays sorted), else into the heap.
//
//sim:hotpath
func (e *Engine) pushFar(en entry) {
	src := numRuns
	for i := range e.runs {
		if r := &e.runs[i]; r.n == 0 || r.tailAt <= en.at {
			if int(r.n) == len(r.buf) {
				e.growRun(r)
			}
			r.push(en)
			src = i
			break
		}
	}
	if src == numRuns {
		e.pushHeap(en)
	}
	// On a tie the current minimum has the smaller seq and stays.
	if e.farAt == 0 || en.at < e.farAt {
		e.farAt, e.farSrc = en.at, src
	}
}

// popFar removes and returns the earliest overflow entry, which must
// exist, and finds the next one among the run heads and the heap top.
//
//sim:hotpath
func (e *Engine) popFar() entry {
	var en entry
	if e.farSrc == numRuns {
		en = e.popHeap()
	} else {
		en = e.runs[e.farSrc].pop()
	}
	var best entry
	src := -1
	if len(e.heap) > 0 {
		best, src = e.heap[0], numRuns
	}
	for i := range e.runs {
		if r := &e.runs[i]; r.n > 0 {
			if h := r.buf[r.head]; src < 0 || less(h, best) {
				best, src = h, i
			}
		}
	}
	e.farAt, e.farSrc = best.at, src
	return en
}

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

// popHeap removes and returns the minimum heap entry.
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
// event and that event's cycle; ok=false when the wheel is empty. The
// cycle follows from the bucket: every chained event lies in
// [now, now+wheelSize), so bucket idx holds cycle now plus idx's
// distance past now's own bucket, modulo the wheel.
//
//sim:hotpath
func (e *Engine) scanWheel() (idx int, at Cycle, ok bool) {
	pos := int(e.now & wheelMask)
	idx = e.findOccFrom(pos)
	if idx < 0 {
		// The window may have wrapped: any occupied bucket below the
		// clock's position maps to a later cycle in the window.
		idx = e.findOccFrom(0)
	}
	if idx < 0 {
		return 0, 0, false
	}
	return idx, e.now + Cycle((idx-pos)&wheelMask), true
}

// next dequeues the earliest pending handler in (at, seq) order and
// advances the clock to its cycle, or returns nil when the engine is
// drained. Every wheel cycle precedes every overflow cycle (the
// overflow minimum is >= now+wheelSize by the refill invariant), so the
// wheel head, when present, is the global minimum.
//
//sim:hotpath
func (e *Engine) next() Handler {
	for {
		idx, at, ok := e.scanWheel()
		if !ok {
			if e.farAt == 0 {
				return nil
			}
			// The wheel is drained: jump the clock to the overflow
			// frontier; the next iteration finds the event in its
			// bucket.
			e.advance(e.farAt)
			continue
		}
		// Refill cannot touch this bucket: refilled cycles lie in
		// [oldNow+wheelSize, at+wheelSize), and the only one congruent
		// to at is at+wheelSize itself, which is out of range.
		e.advance(at)
		s := e.popBucketHead(idx)
		h := e.slots[s].h
		e.freeSlot(s)
		return h
	}
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
//
//sim:hotpath
func (e *Engine) Step() bool {
	h := e.next()
	if h == nil {
		return false
	}
	e.live--
	e.fired++
	if e.budget != 0 && e.fired > e.budget {
		panic(fmt.Sprintf("sim: event budget %d exceeded at cycle %d", e.budget, e.now))
	}
	h.Fire()
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

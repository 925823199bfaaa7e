package uvm

import "uvmsim/internal/memunits"

// tlb models the GMMU's shared translation lookaside buffer: an
// LRU-replaced set of 4KB translations. A miss pays the page table walk
// latency of Table I on top of the access; evicting device pages
// invalidates their entries (the TLB shootdown that makes oversubscribed
// irregular workloads pay translation overhead on top of migration, cf.
// Vesely et al. [28]).
//
// The implementation is allocation-free in steady state: nodes live in a
// fixed arena recycled through a free list, the LRU chain links nodes by
// arena index, and the page lookup is a dense slice (the simulated
// address space is small and contiguous) instead of a map.
type tlb struct {
	cap int
	// idx maps page number -> arena index + 1; 0 means absent. Grown on
	// demand; the managed address space is dense and starts near zero, so
	// this stays small.
	idx   []int32
	nodes []tlbNode
	free  []int32 // recycled arena slots
	head  int32   // most recently used (-1 = empty)
	tail  int32   // least recently used (-1 = empty)
	count int
}

type tlbNode struct {
	page       memunits.PageNum
	prev, next int32 // arena indices; -1 terminates
}

// newTLB creates a TLB with the given entry capacity; cap <= 0 disables
// translation modelling (every lookup hits).
func newTLB(cap int) *tlb {
	t := &tlb{cap: cap, head: -1, tail: -1}
	if cap > 0 {
		// cap+1 because insertion precedes the over-capacity eviction.
		t.nodes = make([]tlbNode, 0, cap+1)
	}
	return t
}

// slot returns a pointer into idx for page p, growing the table to cover
// it.
func (t *tlb) slot(p memunits.PageNum) *int32 {
	if p >= uint64(len(t.idx)) {
		grown := make([]int32, max(p+1, uint64(2*len(t.idx))))
		copy(grown, t.idx)
		t.idx = grown
	}
	return &t.idx[p]
}

// lookup reports whether the page's translation is cached, touching the
// entry on hit and inserting it (with LRU eviction) on miss.
func (t *tlb) lookup(p memunits.PageNum) bool {
	if t.cap <= 0 {
		return true
	}
	s := t.slot(p)
	if *s != 0 {
		t.touch(*s - 1)
		return true
	}
	var n int32
	if k := len(t.free); k > 0 {
		n = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		t.nodes = append(t.nodes, tlbNode{})
		n = int32(len(t.nodes) - 1)
	}
	t.nodes[n].page = p
	*s = n + 1
	t.pushFront(n)
	t.count++
	if t.count > t.cap {
		lru := t.tail
		t.unlink(lru)
		t.idx[t.nodes[lru].page] = 0
		t.free = append(t.free, lru)
		t.count--
	}
	return false
}

// invalidateRange drops translations for pages [first, first+count)
// (TLB shootdown on eviction).
func (t *tlb) invalidateRange(first memunits.PageNum, count uint64) uint64 {
	if t.cap <= 0 {
		return 0
	}
	var dropped uint64
	end := first + count
	if lim := uint64(len(t.idx)); end > lim {
		end = lim
	}
	for p := first; p < end; p++ {
		if n := t.idx[p]; n != 0 {
			t.unlink(n - 1)
			t.idx[p] = 0
			t.free = append(t.free, n-1)
			t.count--
			dropped++
		}
	}
	return dropped
}

func (t *tlb) pushFront(n int32) {
	t.nodes[n].prev = -1
	t.nodes[n].next = t.head
	if t.head >= 0 {
		t.nodes[t.head].prev = n
	}
	t.head = n
	if t.tail < 0 {
		t.tail = n
	}
}

func (t *tlb) unlink(n int32) {
	prev, next := t.nodes[n].prev, t.nodes[n].next
	if prev >= 0 {
		t.nodes[prev].next = next
	} else {
		t.head = next
	}
	if next >= 0 {
		t.nodes[next].prev = prev
	} else {
		t.tail = prev
	}
	t.nodes[n].prev, t.nodes[n].next = -1, -1
}

func (t *tlb) touch(n int32) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}

package uvm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

func TestTLBHitMiss(t *testing.T) {
	tl := newTLB(4)
	if tl.lookup(1) {
		t.Fatal("cold lookup hit")
	}
	if !tl.lookup(1) {
		t.Fatal("warm lookup missed")
	}
	if tl.count != 1 {
		t.Fatalf("size = %d", tl.count)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tl := newTLB(2)
	tl.lookup(1)
	tl.lookup(2)
	tl.lookup(1) // touch 1: 2 becomes LRU
	tl.lookup(3) // evicts 2
	if !tl.lookup(1) {
		t.Fatal("recently used entry evicted")
	}
	if tl.lookup(2) {
		t.Fatal("LRU entry survived")
	}
	if tl.count != 2 {
		t.Fatalf("size = %d, want cap 2", tl.count)
	}
}

func TestTLBInvalidateRange(t *testing.T) {
	tl := newTLB(16)
	for p := memunits.PageNum(0); p < 8; p++ {
		tl.lookup(p)
	}
	dropped := tl.invalidateRange(2, 4)
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
	for p := memunits.PageNum(0); p < 8; p++ {
		present := tl.idx[p] != 0
		want := p < 2 || p >= 6
		if present != want {
			t.Fatalf("page %d presence = %v, want %v", p, present, want)
		}
	}
	// Re-invalidating is a no-op.
	if tl.invalidateRange(2, 4) != 0 {
		t.Fatal("double invalidate dropped entries")
	}
}

func TestTLBDisabled(t *testing.T) {
	tl := newTLB(0)
	if !tl.lookup(9) {
		t.Fatal("disabled TLB missed")
	}
	if tl.invalidateRange(0, 100) != 0 {
		t.Fatal("disabled TLB dropped entries")
	}
}

// Property: the TLB never exceeds capacity and a lookup immediately
// after another lookup of the same page always hits.
func TestTLBBoundsProperty(t *testing.T) {
	f := func(pages []uint16, capRaw uint8) bool {
		cap := int(capRaw)%64 + 1
		tl := newTLB(cap)
		for _, p := range pages {
			tl.lookup(memunits.PageNum(p))
			if tl.count > cap {
				return false
			}
			if !tl.lookup(memunits.PageNum(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDriverCountsTranslations(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.syncAccess(t, r.a.Base, false) // migrate block 0
	st := r.d.Stats()
	if st.TLBMisses == 0 {
		t.Fatal("no TLB misses recorded")
	}
	// Second access to the same page: hit.
	preHits := st.TLBHits
	r.syncAccess(t, r.a.Base, false)
	if st.TLBHits != preHits+1 {
		t.Fatalf("hits = %d, want %d", st.TLBHits, preHits+1)
	}
}

func TestTLBMissAddsWalkLatency(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.syncAccess(t, r.a.Base, false)
	// Hit: DRAM latency only.
	at1, _ := r.d.TryFastAccess(r.a.Base, false)
	hitLat := at1 - r.eng.Now()
	// Miss (different page of the same resident block): +PageWalkLatency.
	at2, _ := r.d.TryFastAccess(r.a.Base+8*memunits.PageSize, false)
	missLat := at2 - r.eng.Now()
	if missLat != hitLat+simCycle(r.d.cfg.PageWalkLatency) {
		t.Fatalf("miss latency %d, want hit %d + walk %d", missLat, hitLat, r.d.cfg.PageWalkLatency)
	}
}

func simCycle(v uint64) uint64 { return v }

func TestEvictionShootsDownTLB(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
	}, 12<<20)
	touchChunk := func(chunk uint64) {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, false)
		}
	}
	touchChunk(0)
	touchChunk(1)
	touchChunk(2) // evicts chunk 0 -> shootdowns
	if r.d.Stats().TLBShootdowns == 0 {
		t.Fatal("eviction produced no shootdowns")
	}
	if err := r.d.Stats().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDriverTLBDisabled(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.TLBEntries = 0 }, 4<<20)
	r.syncAccess(t, r.a.Base, false)
	st := r.d.Stats()
	if st.TLBMisses != 0 {
		t.Fatalf("disabled TLB recorded %d misses", st.TLBMisses)
	}
	if st.TLBHits == 0 {
		t.Fatal("disabled TLB should count everything as hits")
	}
}

// refLRU is the naive specification of the TLB: a slice ordered from
// most to least recently used, searched linearly.
type refLRU struct {
	cap   int
	pages []memunits.PageNum
}

func (r *refLRU) lookup(p memunits.PageNum) bool {
	if i := slices.Index(r.pages, p); i >= 0 {
		copy(r.pages[1:i+1], r.pages[:i])
		r.pages[0] = p
		return true
	}
	r.pages = slices.Insert(r.pages, 0, p)
	if len(r.pages) > r.cap {
		r.pages = r.pages[:r.cap]
	}
	return false
}

func (r *refLRU) invalidateRange(first memunits.PageNum, count uint64) uint64 {
	n := len(r.pages)
	r.pages = slices.DeleteFunc(r.pages, func(p memunits.PageNum) bool {
		return p >= first && p-first < count
	})
	return uint64(n - len(r.pages))
}

// tlbOrder walks the TLB's LRU chain from most to least recently used.
func tlbOrder(tl *tlb) []memunits.PageNum {
	var order []memunits.PageNum
	for n := tl.head; n >= 0; n = tl.nodes[n].next {
		order = append(order, tl.nodes[n].page)
	}
	return order
}

// tlbResident lists the pages with a translation in the TLB's page
// index, in page order.
func tlbResident(tl *tlb) []memunits.PageNum {
	var pages []memunits.PageNum
	for p, n := range tl.idx {
		if n != 0 {
			pages = append(pages, memunits.PageNum(p))
		}
	}
	return pages
}

// TestTLBMatchesReferenceLRU drives the TLB and the reference LRU
// through identical random streams of lookups and invalidateRange
// shootdowns: hot-set reuse, scans wider than the capacity and random
// pages, over capacities from 1 to 64. After every operation both agree
// on the hit or miss (or the dropped count), the size, the resident set
// and the recency order.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	for trial := 0; trial < 256; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(64)
		span := capacity + 1 + rng.Intn(4*capacity)
		tl := newTLB(capacity)
		ref := &refLRU{cap: capacity}
		scan := 0
		for op := 0; op < 600; op++ {
			var desc string
			switch r := rng.Intn(100); {
			case r < 8:
				first := memunits.PageNum(rng.Intn(span))
				count := uint64(rng.Intn(capacity + 2))
				got, want := tl.invalidateRange(first, count), ref.invalidateRange(first, count)
				if got != want {
					t.Fatalf("trial %d op %d: invalidateRange(%d, %d) dropped %d, reference %d", trial, op, first, count, got, want)
				}
				desc = fmt.Sprintf("invalidateRange(%d, %d)", first, count)
			default:
				var p memunits.PageNum
				switch {
				case r < 50: // hot set: mostly hits
					p = memunits.PageNum(rng.Intn(capacity/2 + 1))
				case r < 75: // scan: evicts in LRU order
					p = memunits.PageNum(scan % span)
					scan++
				default:
					p = memunits.PageNum(rng.Intn(span))
				}
				got, want := tl.lookup(p), ref.lookup(p)
				if got != want {
					t.Fatalf("trial %d op %d: lookup(%d) hit=%v, reference hit=%v", trial, op, p, got, want)
				}
				desc = fmt.Sprintf("lookup(%d)", p)
			}
			if tl.count != len(ref.pages) {
				t.Fatalf("trial %d op %d: after %s size %d, reference %d", trial, op, desc, tl.count, len(ref.pages))
			}
			if got, want := tlbResident(tl), slices.Sorted(slices.Values(ref.pages)); !slices.Equal(got, want) {
				t.Fatalf("trial %d op %d: after %s resident %v, reference %v", trial, op, desc, got, want)
			}
			if got := tlbOrder(tl); !slices.Equal(got, ref.pages) {
				t.Fatalf("trial %d op %d: after %s LRU order %v, reference %v", trial, op, desc, got, ref.pages)
			}
		}
	}
}

package prefetch

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uvmsim/internal/config"
)

func TestNewTreeValidation(t *testing.T) {
	for _, n := range []int{1, 2, 4, 32, 64} {
		if got := NewTree(n).n; got != n {
			t.Errorf("NewTree(%d).n = %d", n, got)
		}
	}
	for _, n := range []int{0, 3, 33, 128, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTree(%d) did not panic", n)
				}
			}()
			NewTree(n)
		}()
	}
}

func TestMarkAndClear(t *testing.T) {
	tr := NewTree(32)
	tr.MarkOccupied(5)
	tr.MarkOccupied(31)
	if !tr.Occupied(5) || !tr.Occupied(31) || tr.Occupied(6) {
		t.Fatal("occupancy bits wrong")
	}
	if bits.OnesCount64(tr.leaves) != 2 {
		t.Fatalf("occupied = %d, want 2", bits.OnesCount64(tr.leaves))
	}
	tr.MarkEmpty(5)
	if tr.Occupied(5) {
		t.Fatal("MarkEmpty did not clear")
	}
	tr.Clear()
	if bits.OnesCount64(tr.leaves) != 0 {
		t.Fatal("Clear left leaves")
	}
}

func TestFull(t *testing.T) {
	tr := NewTree(4)
	for i := 0; i < 4; i++ {
		if tr.Full() {
			t.Fatal("tree full before all leaves marked")
		}
		tr.MarkOccupied(i)
	}
	if !tr.Full() {
		t.Fatal("tree not full with all leaves marked")
	}
	t64 := NewTree(64)
	for i := 0; i < 64; i++ {
		t64.MarkOccupied(i)
	}
	if !t64.Full() {
		t.Fatal("64-leaf tree not full")
	}
}

// First touch on an empty tree must not prefetch: every node is at
// exactly 50% or less.
func TestFirstTouchNoPrefetch(t *testing.T) {
	tr := NewTree(32)
	if extra := tr.OnMigrate(7); extra != 0 {
		t.Fatalf("first touch prefetched %#x", extra)
	}
	if bits.OnesCount64(tr.leaves) != 1 {
		t.Fatalf("occupied = %d, want 1", bits.OnesCount64(tr.leaves))
	}
}

// Second touch within a 2-leaf pair: the pair node reaches 2/2 = 100%,
// never "strictly more than 50%" with an empty sibling, so migrating
// leaf 0 then leaf 1 prefetches nothing, but migrating leaf 0 then leaf 2
// pushes the 4-span node to 2/4 = 50% (no prefetch). Leaf 0,2 then 1:
// 4-span occupancy 3/4 > 50% -> prefetch leaf 3.
func TestTreeTriggerAtStrictMajority(t *testing.T) {
	tr := NewTree(4)
	if extra := tr.OnMigrate(0); extra != 0 {
		t.Fatalf("unexpected prefetch %#x", extra)
	}
	if extra := tr.OnMigrate(2); extra != 0 {
		t.Fatalf("2/4 occupancy must not trigger, got %#x", extra)
	}
	if extra := tr.OnMigrate(1); extra != 1<<3 {
		t.Fatalf("3/4 occupancy should prefetch leaf 3, got %#x", extra)
	}
	if !tr.Full() {
		t.Fatal("tree should be full after balancing prefetch")
	}
}

// Dense sequential migration across a 32-leaf chunk: once strictly more
// than half of a subtree is resident the rest arrives in bulk, so a
// linear sweep fully populates the chunk well before 32 individual
// migrations.
func TestSequentialSweepPopulatesEarly(t *testing.T) {
	tr := NewTree(32)
	faults := 0
	for i := 0; i < 32 && !tr.Full(); i++ {
		if !tr.Occupied(i) {
			tr.OnMigrate(i)
			faults++
		}
	}
	if !tr.Full() {
		t.Fatal("sweep did not fill tree")
	}
	if faults >= 32 {
		t.Fatalf("tree prefetcher did not reduce faults: %d", faults)
	}
}

// Paper: prefetch size ranges from 64KB to 1MB — i.e. at most half the
// chunk (16 leaves) arrives due to one migration.
func TestMaxPrefetchIsHalfChunk(t *testing.T) {
	tr := NewTree(32)
	// Occupy leaves 0..15 (= exactly 50% at the root, no trigger).
	for i := 0; i < 16; i++ {
		tr.MarkOccupied(i)
	}
	extra := tr.OnMigrate(16)
	// Root occupancy 17/32 > 50%: prefetch the remaining 15 leaves.
	if n := bits.OnesCount64(extra); n != 15 {
		t.Fatalf("prefetched %d leaves, want 15 (<= 1MB)", n)
	}
	if !tr.Full() {
		t.Fatal("tree should be full")
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := NewTree(1)
	if extra := tr.OnMigrate(0); extra != 0 {
		t.Fatalf("1-leaf tree prefetched %#x", extra)
	}
	if !tr.Full() {
		t.Fatal("1-leaf tree not full after migration")
	}
}

// Property: OnMigrate returns only leaves that were empty before the
// call, never the faulting leaf, all within range; and occupancy
// afterwards includes the faulting leaf plus the returned set.
func TestOnMigrateContractProperty(t *testing.T) {
	f := func(seedBits uint32, leaf uint8) bool {
		tr := NewTree(32)
		for i := 0; i < 32; i++ {
			if seedBits&(1<<uint(i)) != 0 {
				tr.MarkOccupied(i)
			}
		}
		i := int(leaf) % 32
		before := tr.leaves
		extra := tr.OnMigrate(i)
		if extra>>32 != 0 || extra&(1<<uint(i)) != 0 {
			return false
		}
		if before&extra != 0 {
			return false // prefetched an already-resident leaf
		}
		return tr.leaves == before|extra|1<<uint(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after any OnMigrate, no non-leaf node is left strictly above
// 50% and below 100% — the heuristic always balances what it trips.
func TestTreeBalancedInvariantProperty(t *testing.T) {
	f := func(seedBits uint32, leaf uint8) bool {
		tr := NewTree(32)
		for i := 0; i < 32; i++ {
			if seedBits&(1<<uint(i)) != 0 {
				tr.MarkOccupied(i)
			}
		}
		tr.OnMigrate(int(leaf) % 32)
		// Check only ancestors of the migrated leaf: other subtrees may
		// legitimately sit above 50% from MarkOccupied seeding.
		i := int(leaf) % 32
		for span := 2; span <= 32; span *= 2 {
			lo := i / span * span
			occ := tr.countRange(lo, span)
			if occ*2 > span && occ != span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkKinds(t *testing.T) {
	// None: exactly the faulting block.
	c := NewChunk(config.PrefetchNone, 32)
	if got := c.OnFault(9); len(got) != 1 || got[0] != 9 {
		t.Fatalf("None OnFault = %v", got)
	}
	// Sequential: block + next empty block.
	c = NewChunk(config.PrefetchSequential, 32)
	if got := c.OnFault(9); len(got) != 2 || got[0] != 9 || got[1] != 10 {
		t.Fatalf("Sequential OnFault = %v", got)
	}
	if got := c.OnFault(8); len(got) != 1 || got[0] != 8 {
		t.Fatalf("Sequential OnFault with occupied neighbor = %v", got)
	}
	// Sequential at the last block: no neighbor.
	c2 := NewChunk(config.PrefetchSequential, 32)
	if got := c2.OnFault(31); len(got) != 1 || got[0] != 31 {
		t.Fatalf("Sequential OnFault at edge = %v", got)
	}
	// Tree: includes the faulting block in sorted order.
	c = NewChunk(config.PrefetchTree, 4)
	c.OnFault(0)
	c.OnFault(2)
	got := c.OnFault(1)
	want := []int{1, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Tree OnFault = %v, want %v", got, want)
	}
}

func TestChunkTreeAccessor(t *testing.T) {
	c := NewChunk(config.PrefetchTree, 8)
	c.OnFault(3)
	if !c.Tree().Occupied(3) {
		t.Fatal("Tree() does not reflect OnFault")
	}
}

// refOnMigrate is the slice-returning OnMigrate the mask version
// replaced, kept verbatim as the reference it must agree with.
func (t *Tree) refOnMigrate(i int) []int {
	t.check(i)
	t.leaves |= 1 << uint(i)
	var extra []int
	for span := 2; span <= t.n; span *= 2 {
		lo := i / span * span
		occ := t.countRange(lo, span)
		if occ*2 <= span || occ == span {
			continue
		}
		for j := lo; j < lo+span; j++ {
			if t.leaves&(1<<uint(j)) == 0 {
				t.leaves |= 1 << uint(j)
				extra = append(extra, j)
			}
		}
	}
	// Wider spans append lower-numbered leaves after narrower spans did;
	// callers rely on ascending order.
	sort.Ints(extra)
	return extra
}

// Property: for every power-of-two leaf count up to a full chunk, random
// occupancy and a random faulting leaf, OnMigrate's mask holds exactly
// the reference's leaf set and both leave the same occupancy behind.
func TestOnMigrateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 32; n *= 2 {
		for trial := 0; trial < 2000; trial++ {
			occ := rng.Uint64() & (1<<uint(n) - 1)
			leaf := rng.Intn(n)
			got, ref := &Tree{n: n, leaves: occ}, &Tree{n: n, leaves: occ}
			mask := got.OnMigrate(leaf)
			var want uint64
			for _, e := range ref.refOnMigrate(leaf) {
				want |= 1 << uint(e)
			}
			if mask != want || got.leaves != ref.leaves {
				t.Fatalf("n=%d occ=%#x leaf=%d: mask %#x leaves %#x, reference %#x leaves %#x",
					n, occ, leaf, mask, got.leaves, want, ref.leaves)
			}
		}
	}
}

// A chunk holds at most the 32 blocks of a 2MB chunk.
func TestNewChunkRejectsOversizedChunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChunk(64) did not panic")
		}
	}()
	NewChunk(config.PrefetchTree, 64)
}

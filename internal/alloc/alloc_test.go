package alloc

import (
	"testing"
	"testing/quick"

	"uvmsim/internal/memunits"
)

func TestAllocRoundingAndChunks(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("x", 4<<20+168<<10, false)
	if a.Size != 4<<20+256<<10 {
		t.Fatalf("rounded size = %d, want 4MB+256KB", a.Size)
	}
	chunks := a.chunks
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	if chunks[0].Bytes != 2<<20 || chunks[1].Bytes != 2<<20 || chunks[2].Bytes != 256<<10 {
		t.Fatalf("chunk sizes = %v", []uint64{chunks[0].Bytes, chunks[1].Bytes, chunks[2].Bytes})
	}
	if chunks[2].Blocks() != 4 {
		t.Fatalf("trailing chunk blocks = %d, want 4", chunks[2].Blocks())
	}
	// Chunk numbers must be consecutive.
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Num != chunks[i-1].Num+1 {
			t.Fatalf("chunk numbers not consecutive: %d then %d", chunks[i-1].Num, chunks[i].Num)
		}
	}
}

func TestAllocBaseAlignmentAndGuardGap(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 3<<20, false) // 2 chunk slots
	b := s.Alloc("b", 64<<10, false)
	if a.Base%memunits.ChunkSize != 0 || b.Base%memunits.ChunkSize != 0 {
		t.Fatal("allocation bases not chunk aligned")
	}
	if a.Base == 0 {
		t.Fatal("first allocation at address zero")
	}
	// b must start at least one full guard chunk past a's last slot.
	lastSlotEnd := memunits.ChunkAddr(a.chunks[len(a.chunks)-1].Num) + memunits.ChunkSize
	if b.Base < lastSlotEnd+memunits.ChunkSize {
		t.Fatalf("no guard gap: a ends slot at %#x, b at %#x", lastSlotEnd, b.Base)
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size alloc did not panic")
		}
	}()
	NewSpace().Alloc("z", 0, false)
}

func TestAddrBoundsChecked(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 100, false)
	if got := a.Addr(99); got != a.Base+99 {
		t.Fatalf("Addr(99) = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Addr did not panic")
		}
	}()
	a.Addr(100)
}

func TestFind(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 1<<20, false)
	b := s.Alloc("b", 5<<20, true)
	cases := []struct {
		addr memunits.Addr
		want *Allocation
	}{
		{a.Base, a},
		{a.Base + a.Size - 1, a},
		{a.Base + a.Size, nil}, // guard gap
		{b.Base, b},
		{b.End() - 1, b},
		{b.End(), nil},
		{0, nil},
	}
	for _, tt := range cases {
		if got := s.Find(tt.addr); got != tt.want {
			t.Errorf("Find(%#x) = %v, want %v", tt.addr, got, tt.want)
		}
	}
}

func TestFindChunk(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 4<<20+168<<10, false)
	for i, ci := range a.chunks {
		got, info, ok := s.FindChunk(ci.Num)
		if !ok || got != a || info.Num != ci.Num || info.Bytes != ci.Bytes {
			t.Fatalf("FindChunk(chunk %d of a) = %v,%+v,%v", i, got, info, ok)
		}
	}
	// Guard chunk after the allocation must not resolve.
	last := a.chunks[len(a.chunks)-1].Num
	if _, _, ok := s.FindChunk(last + 1); ok {
		t.Fatal("guard chunk resolved to an allocation")
	}
}

func TestTotals(t *testing.T) {
	s := NewSpace()
	s.Alloc("a", 1<<20, false)
	s.Alloc("b", 3<<20, false)
	if got := s.TotalUserBytes(); got != 4<<20 {
		t.Fatalf("TotalUserBytes = %d, want 4MB", got)
	}
	if len(s.Allocations()) != 2 {
		t.Fatal("Allocations count wrong")
	}
}

func TestChunkInfoHelpers(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 2<<20, false)
	c := a.chunks[0]
	if c.Blocks() != 32 {
		t.Fatalf("full chunk blocks=%d", c.Blocks())
	}
	if c.FirstBlock() != c.Num*memunits.BlocksPerChunk {
		t.Fatal("FirstBlock inconsistent")
	}
	if a.FirstPage() != memunits.PageOf(a.Base) || a.FirstBlock() != memunits.BlockOf(a.Base) {
		t.Fatal("allocation first page/block inconsistent")
	}
	if a.NumPages() != 512 || a.NumBlocks() != 32 {
		t.Fatalf("NumPages=%d NumBlocks=%d", a.NumPages(), a.NumBlocks())
	}
}

// Property: for any set of allocation sizes, allocations never overlap,
// every in-range address Finds its allocation, and chunk lookups agree
// with Find.
func TestSpaceDisjointnessProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		s := NewSpace()
		var allocs []*Allocation
		for i, raw := range sizes {
			if i >= 8 {
				break
			}
			size := uint64(raw)%(8<<20) + 1
			allocs = append(allocs, s.Alloc("p", size, false))
		}
		for i, a := range allocs {
			for j, b := range allocs {
				if i != j && a.Base < b.End() && b.Base < a.End() {
					return false
				}
			}
			probes := []memunits.Addr{a.Base, a.Base + a.Size/2, a.End() - 1}
			for _, p := range probes {
				if s.Find(p) != a {
					return false
				}
			}
			for _, ci := range a.chunks {
				if got, _, ok := s.FindChunk(ci.Num); !ok || got != a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package memunits

import (
	"testing"
	"testing/quick"
)

func TestGranularityRelations(t *testing.T) {
	if PagesPerBlock != 16 {
		t.Errorf("PagesPerBlock = %d, want 16", PagesPerBlock)
	}
	if BlocksPerChunk != 32 {
		t.Errorf("BlocksPerChunk = %d, want 32", BlocksPerChunk)
	}
	if PagesPerChunk != 512 {
		t.Errorf("PagesPerChunk = %d, want 512", PagesPerChunk)
	}
}

func TestAddressMapping(t *testing.T) {
	tests := []struct {
		addr  Addr
		page  PageNum
		block BlockNum
		chunk ChunkNum
	}{
		{0, 0, 0, 0},
		{PageSize - 1, 0, 0, 0},
		{PageSize, 1, 0, 0},
		{BlockSize, 16, 1, 0},
		{ChunkSize, 512, 32, 1},
		{3*ChunkSize + 5*BlockSize + 2*PageSize + 17, 3*512 + 5*16 + 2, 3*32 + 5, 3},
	}
	for _, tt := range tests {
		if got := PageOf(tt.addr); got != tt.page {
			t.Errorf("PageOf(%#x) = %d, want %d", tt.addr, got, tt.page)
		}
		if got := BlockOf(tt.addr); got != tt.block {
			t.Errorf("BlockOf(%#x) = %d, want %d", tt.addr, got, tt.block)
		}
		if got := ChunkOf(tt.addr); got != tt.chunk {
			t.Errorf("ChunkOf(%#x) = %d, want %d", tt.addr, got, tt.chunk)
		}
	}
}

func TestHierarchyConsistencyProperty(t *testing.T) {
	f := func(a Addr) bool {
		a %= 1 << 40
		return ChunkOfBlock(BlockOf(a)) == ChunkOf(a) &&
			FirstBlockOfChunk(ChunkOf(a)) <= BlockOf(a) &&
			FirstPageOfBlock(BlockOf(a)) <= PageOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundUp(t *testing.T) {
	tests := []struct{ n, unit, want uint64 }{
		{0, 4096, 0},
		{1, 4096, 4096},
		{4096, 4096, 4096},
		{4097, 4096, 8192},
		{100, 64, 128},
	}
	for _, tt := range tests {
		if got := RoundUp(tt.n, tt.unit); got != tt.want {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", tt.n, tt.unit, got, tt.want)
		}
	}
}

func TestRoundUpNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RoundUp with non-power-of-two unit did not panic")
		}
	}()
	RoundUp(10, 3)
}

func TestRoundAllocSizePaperExample(t *testing.T) {
	// Paper §II-B: 4MB+168KB becomes chunks 2MB, 2MB, 256KB.
	got := RoundAllocSize(4<<20 + 168<<10)
	want := uint64(4<<20 + 256<<10)
	if got != want {
		t.Fatalf("RoundAllocSize(4MB+168KB) = %d, want %d", got, want)
	}
	chunks := ChunkSizes(got)
	wantChunks := []uint64{2 << 20, 2 << 20, 256 << 10}
	if len(chunks) != len(wantChunks) {
		t.Fatalf("ChunkSizes = %v, want %v", chunks, wantChunks)
	}
	for i := range chunks {
		if chunks[i] != wantChunks[i] {
			t.Fatalf("ChunkSizes = %v, want %v", chunks, wantChunks)
		}
	}
}

func TestRoundAllocSizeEdges(t *testing.T) {
	tests := []struct{ in, want uint64 }{
		{0, 0},
		{1, 64 << 10},
		{64 << 10, 64 << 10},
		{65 << 10, 128 << 10},
		{129 << 10, 256 << 10},
		{2 << 20, 2 << 20},
		{2<<20 + 1, 2<<20 + 64<<10},
		{1<<20 + 1, 2 << 20}, // 1MB+1 -> remainder rounds to 2MB worth? no: 17 blocks -> 32 blocks = 2MB
	}
	for _, tt := range tests {
		if got := RoundAllocSize(tt.in); got != tt.want {
			t.Errorf("RoundAllocSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// Property: rounded size is always >= requested, 64KB aligned, and the
// remainder past full chunks is a power-of-two count of 64KB blocks.
func TestRoundAllocSizeProperty(t *testing.T) {
	f := func(n uint64) bool {
		n %= 1 << 33
		r := RoundAllocSize(n)
		if r < n || r%BlockSize != 0 {
			return false
		}
		rem := r % ChunkSize
		if rem == 0 {
			return true
		}
		blocks := rem / BlockSize
		return blocks&(blocks-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ChunkSizes always sums back to the rounded size and every
// chunk except possibly the last is exactly 2MB.
func TestChunkSizesProperty(t *testing.T) {
	f := func(n uint64) bool {
		n %= 1 << 33
		r := RoundAllocSize(n)
		chunks := ChunkSizes(r)
		var sum uint64
		for i, c := range chunks {
			sum += c
			if i < len(chunks)-1 && c != ChunkSize {
				return false
			}
		}
		return sum == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHumanBytes(t *testing.T) {
	tests := []struct {
		in   uint64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{4 << 10, "4KB"},
		{2 << 20, "2MB"},
		{3 << 30, "3GB"},
		{2<<20 + 1, fmt2MBPlus1},
	}
	for _, tt := range tests {
		if got := HumanBytes(tt.in); got != tt.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

const fmt2MBPlus1 = "2097153B"

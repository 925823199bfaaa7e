// Package memunits centralizes the address arithmetic shared by the whole
// memory hierarchy: 4KB small pages (the GMMU translation unit), 64KB
// basic blocks (the prefetch and access-counter unit), and 2MB chunks
// (the large-page eviction unit), plus the CUDA managed-allocation size
// rounding rule (next 2^i * 64KB).
package memunits

import "fmt"

// Fundamental granularities of the UVM hierarchy (bytes).
const (
	PageSize  = 4 << 10  // 4KB   — GMMU translation and residency unit
	BlockSize = 64 << 10 // 64KB  — prefetch basic block / access counter unit
	ChunkSize = 2 << 20  // 2MB   — large-page eviction unit

	PagesPerBlock  = BlockSize / PageSize  // 16
	BlocksPerChunk = ChunkSize / BlockSize // 32
	PagesPerChunk  = ChunkSize / PageSize  // 512

	SectorSize = 128 // bytes; DRAM/L2 transaction size used by the coalescer
)

// Addr is a virtual or physical byte address in the simulated system.
type Addr = uint64

// PageNum identifies a 4KB page (address / PageSize).
type PageNum = uint64

// BlockNum identifies a 64KB basic block (address / BlockSize).
type BlockNum = uint64

// ChunkNum identifies a 2MB chunk (address / ChunkSize).
type ChunkNum = uint64

// PageOf returns the page number containing addr.
func PageOf(addr Addr) PageNum { return addr / PageSize }

// BlockOf returns the basic-block number containing addr.
func BlockOf(addr Addr) BlockNum { return addr / BlockSize }

// ChunkOf returns the chunk number containing addr.
func ChunkOf(addr Addr) ChunkNum { return addr / ChunkSize }

// ChunkOfBlock returns the chunk number containing block b.
func ChunkOfBlock(b BlockNum) ChunkNum { return b / BlocksPerChunk }

// BlockAddr returns the base address of block b.
func BlockAddr(b BlockNum) Addr { return b * BlockSize }

// ChunkAddr returns the base address of chunk c.
func ChunkAddr(c ChunkNum) Addr { return c * ChunkSize }

// FirstPageOfBlock returns the first page number of block b.
func FirstPageOfBlock(b BlockNum) PageNum { return b * PagesPerBlock }

// FirstBlockOfChunk returns the first block number of chunk c.
func FirstBlockOfChunk(c ChunkNum) BlockNum { return c * BlocksPerChunk }

// RoundUp rounds n up to the next multiple of unit. unit must be a power
// of two.
func RoundUp(n, unit uint64) uint64 {
	if unit == 0 || unit&(unit-1) != 0 {
		panic(fmt.Sprintf("memunits: RoundUp unit %d is not a power of two", unit))
	}
	return (n + unit - 1) &^ (unit - 1)
}

// RoundAllocSize applies the CUDA managed-allocation rounding rule: the
// user-requested size is rounded up to the next 2^i * 64KB (i >= 0). For
// example 4MB+168KB rounds to 4MB+256KB (not a single power of two: the
// rule rounds to the next multiple of 64KB whose 64KB-block count is
// itself rounded to a power of two only when below one block).
//
// Per the paper (§II-B), a request of 4MB+168KB yields chunks of
// 2MB + 2MB + 256KB, i.e. the size is rounded to 4MB+256KB. The observed
// driver behaviour is: round the size up to the next 2^i * 64KB where the
// remainder past the last full 2MB chunk is rounded to a power-of-two
// number of 64KB blocks.
func RoundAllocSize(size uint64) uint64 {
	if size == 0 {
		return 0
	}
	full := size / ChunkSize * ChunkSize
	rem := size - full
	if rem == 0 {
		return full
	}
	// Round the remainder up to 2^i * 64KB.
	blocks := RoundUp(rem, BlockSize) / BlockSize
	p := uint64(1)
	for p < blocks {
		p <<= 1
	}
	return full + p*BlockSize
}

// ChunkSizes decomposes a rounded allocation size into its logical chunk
// sizes: as many full 2MB chunks as fit, plus one trailing chunk with the
// power-of-two 64KB remainder (if any).
func ChunkSizes(rounded uint64) []uint64 {
	if rounded%BlockSize != 0 {
		panic(fmt.Sprintf("memunits: ChunkSizes size %d not 64KB-aligned", rounded))
	}
	var out []uint64
	for rounded >= ChunkSize {
		out = append(out, ChunkSize)
		rounded -= ChunkSize
	}
	if rounded > 0 {
		out = append(out, rounded)
	}
	return out
}

// HumanBytes renders a byte count with a binary-unit suffix for reports.
func HumanBytes(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

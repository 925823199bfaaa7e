// Package alloc models cudaMallocManaged-style managed allocations: the
// virtual address space shared by host and device, the CUDA size-rounding
// rule, and the decomposition of each allocation into 2MB chunks of 64KB
// basic blocks that the tree prefetcher and the eviction policies operate
// on.
package alloc

import (
	"fmt"
	"sort"

	"uvmsim/internal/memunits"
)

// Allocation is one managed allocation.
type Allocation struct {
	ID   int
	Name string
	// Base is the chunk-aligned virtual base address.
	Base memunits.Addr
	// UserSize is the size the program requested.
	UserSize uint64
	// Size is UserSize rounded per the CUDA rule (next 2^i * 64KB past
	// full 2MB chunks).
	Size uint64
	// ReadOnlyHint marks allocations the workload never writes. The
	// driver does not trust it for correctness — dirty state is tracked
	// per page — but the trace module uses it to label Fig. 2 output.
	ReadOnlyHint bool

	chunks []ChunkInfo
}

// ChunkInfo describes one logical chunk of an allocation.
type ChunkInfo struct {
	// Num is the global chunk number (Base-relative chunks are
	// contiguous because Base is chunk aligned).
	Num memunits.ChunkNum
	// Bytes is the chunk's size: 2MB for all but possibly the last,
	// which holds a power-of-two count of 64KB blocks.
	Bytes uint64
}

// Blocks returns the number of 64KB basic blocks in the chunk.
func (c ChunkInfo) Blocks() uint64 { return c.Bytes / memunits.BlockSize }

// FirstBlock returns the chunk's first global block number.
func (c ChunkInfo) FirstBlock() memunits.BlockNum {
	return memunits.FirstBlockOfChunk(c.Num)
}

// End returns the first address past the rounded allocation.
func (a *Allocation) End() memunits.Addr { return a.Base + a.Size }

// Contains reports whether addr falls inside the rounded allocation.
func (a *Allocation) Contains(addr memunits.Addr) bool {
	return addr >= a.Base && addr < a.End()
}

// Addr returns the address of byte offset off, panicking on overflow —
// workloads index allocations through this to catch generator bugs.
func (a *Allocation) Addr(off uint64) memunits.Addr {
	if off >= a.UserSize {
		panic(fmt.Sprintf("alloc: %s offset %d out of user size %d", a.Name, off, a.UserSize))
	}
	return a.Base + off
}

// NumPages returns the rounded size in 4KB pages.
func (a *Allocation) NumPages() uint64 { return a.Size / memunits.PageSize }

// NumBlocks returns the rounded size in 64KB blocks.
func (a *Allocation) NumBlocks() uint64 { return a.Size / memunits.BlockSize }

// FirstPage returns the allocation's first global page number.
func (a *Allocation) FirstPage() memunits.PageNum { return memunits.PageOf(a.Base) }

// FirstBlock returns the allocation's first global block number.
func (a *Allocation) FirstBlock() memunits.BlockNum { return memunits.BlockOf(a.Base) }

// Space is the managed virtual address space of one simulated process.
type Space struct {
	allocs []*Allocation
	// nextBase is the next chunk-aligned base to hand out. A one-chunk
	// guard gap separates allocations so that no 2MB chunk (and hence no
	// prefetch tree) ever spans two allocations, matching the driver.
	nextBase memunits.Addr
}

// NewSpace returns an empty address space. The space starts allocations
// at a nonzero base so that address 0 is never valid.
func NewSpace() *Space {
	return &Space{nextBase: memunits.ChunkSize}
}

// Alloc creates a managed allocation of the given user size.
func (s *Space) Alloc(name string, userSize uint64, readOnlyHint bool) *Allocation {
	if userSize == 0 {
		panic(fmt.Sprintf("alloc: zero-size allocation %q", name))
	}
	rounded := memunits.RoundAllocSize(userSize)
	a := &Allocation{
		ID:           len(s.allocs),
		Name:         name,
		Base:         s.nextBase,
		UserSize:     userSize,
		Size:         rounded,
		ReadOnlyHint: readOnlyHint,
	}
	next := a.Base
	for _, cb := range memunits.ChunkSizes(rounded) {
		a.chunks = append(a.chunks, ChunkInfo{Num: memunits.ChunkOf(next), Bytes: cb})
		next += memunits.ChunkSize // chunk slots are 2MB apart even when partial
	}
	s.nextBase = next + memunits.ChunkSize // guard chunk
	s.allocs = append(s.allocs, a)
	return a
}

// Allocations returns the allocations in creation order.
func (s *Space) Allocations() []*Allocation { return s.allocs }

// TotalUserBytes sums the requested sizes (the paper's "working set").
func (s *Space) TotalUserBytes() uint64 {
	var sum uint64
	for _, a := range s.allocs {
		sum += a.UserSize
	}
	return sum
}

// Find returns the allocation containing addr, or nil.
func (s *Space) Find(addr memunits.Addr) *Allocation {
	// Allocations are sorted by base; binary search the last base <= addr.
	i := sort.Search(len(s.allocs), func(i int) bool { return s.allocs[i].Base > addr })
	if i == 0 {
		return nil
	}
	if a := s.allocs[i-1]; a.Contains(addr) {
		return a
	}
	return nil
}

// FindChunk returns the allocation owning the chunk and its ChunkInfo.
// ok is false for guard gaps and never-allocated chunks.
func (s *Space) FindChunk(c memunits.ChunkNum) (a *Allocation, info ChunkInfo, ok bool) {
	a = s.Find(memunits.ChunkAddr(c))
	if a == nil {
		return nil, ChunkInfo{}, false
	}
	idx := int(c - memunits.ChunkOf(a.Base))
	if idx < 0 || idx >= len(a.chunks) {
		return nil, ChunkInfo{}, false
	}
	return a, a.chunks[idx], true
}

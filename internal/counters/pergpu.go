package counters

import (
	"fmt"

	"uvmsim/internal/satmath"
)

// PerGPU is the CXL page controller's counter file: for every pooled
// block it keeps one read and one write counter per GPU, the state the
// controller arbitrates with — who gets a read-only replica, who (if
// anyone) wins a writable migration. It mirrors the controller sketch
// in SNIPPETS.md's cxl_page_controller: counts are bumped on every pool
// access, halved together on saturation (same relative-hotness
// preservation as File), and cleared when the block leaves the pool.
//
// GPU ids are dense [0, gpus). Blocks are keyed by pool block number
// and stored flat — blocks*gpus counters in one slice — so the bump on
// every access is one multiply away and halving sweeps are linear.
type PerGPU struct {
	gpus   int
	reads  []uint32 // block*gpus + gpu
	writes []uint32
	blocks int
}

// PerGPUMax saturates the per-GPU counters at the same width as the
// access field of File; a saturating bump halves every counter.
const PerGPUMax = MaxAccess

// NewPerGPU returns an empty counter file for the given GPU count.
func NewPerGPU(gpus int) *PerGPU {
	if gpus <= 0 {
		panic(fmt.Sprintf("counters: %d GPUs", gpus))
	}
	return &PerGPU{gpus: gpus}
}

// grow extends the flat arrays to cover the block.
//
//sim:hotpath
func (p *PerGPU) grow(block uint64) {
	if block < uint64(p.blocks) {
		return
	}
	n := int(block) + 1
	if m := 2 * p.blocks; m > n {
		n = m
	}
	//simlint:allow hotalloc -- doubling grow path runs O(log n) times, amortized free
	reads := make([]uint32, n*p.gpus)
	copy(reads, p.reads)
	//simlint:allow hotalloc -- doubling grow path runs O(log n) times, amortized free
	writes := make([]uint32, n*p.gpus)
	copy(writes, p.writes)
	p.reads, p.writes, p.blocks = reads, writes, n
}

//sim:hotpath
func (p *PerGPU) idx(block uint64, gpu int) int {
	return int(block)*p.gpus + gpu
}

// NoteRead records one read of the block by the GPU.
//
//sim:hotpath
func (p *PerGPU) NoteRead(block uint64, gpu int) {
	p.grow(block)
	i := p.idx(block, gpu)
	if p.reads[i] == PerGPUMax {
		p.halve()
	}
	p.reads[i]++
}

// NoteWrite records one write of the block by the GPU.
//
//sim:hotpath
func (p *PerGPU) NoteWrite(block uint64, gpu int) {
	p.grow(block)
	i := p.idx(block, gpu)
	if p.writes[i] == PerGPUMax {
		p.halve()
	}
	p.writes[i]++
}

// Reads returns the GPU's read count for the block.
func (p *PerGPU) Reads(block uint64, gpu int) uint64 {
	if block >= uint64(p.blocks) {
		return 0
	}
	return uint64(p.reads[p.idx(block, gpu)])
}

// ReadOnly reports whether the block qualifies for a read-only replica
// on the GPU: its read count exceeds the threshold and no GPU has
// written the block (the controller's read-only migration agreement —
// a replica handed out while writers exist would need immediate
// invalidation).
func (p *PerGPU) ReadOnly(block uint64, gpu int, threshold uint64) bool {
	if block >= uint64(p.blocks) {
		return false
	}
	if p.Reads(block, gpu) <= threshold {
		return false
	}
	base := int(block) * p.gpus
	for g := 0; g < p.gpus; g++ {
		if p.writes[base+g] != 0 {
			return false
		}
	}
	return true
}

// WriteWinner reports whether the GPU has won a writable migration of
// the block: it is the block's sole writer, and its write count exceeds
// every other GPU's read count by more than the threshold — moving the
// page to it costs the other GPUs less than the writer's round trips
// cost it.
func (p *PerGPU) WriteWinner(block uint64, gpu int, threshold uint64) bool {
	if block >= uint64(p.blocks) {
		return false
	}
	base := int(block) * p.gpus
	w := uint64(p.writes[base+gpu])
	if w == 0 {
		return false
	}
	for g := 0; g < p.gpus; g++ {
		if g == gpu {
			continue
		}
		if p.writes[base+g] != 0 {
			return false // not the sole writer
		}
		if w <= satmath.Add(uint64(p.reads[base+g]), threshold) {
			return false
		}
	}
	return true
}

// halve halves every counter (saturation policy, as in File).
func (p *PerGPU) halve() {
	for i := range p.reads {
		p.reads[i] >>= 1
	}
	for i := range p.writes {
		p.writes[i] >>= 1
	}
}

package uvm

import (
	"math/bits"

	"uvmsim/internal/evict"
	"uvmsim/internal/interconnect"
	"uvmsim/internal/memunits"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// evictOne frees one eviction unit through the pipeline's eviction
// engine. dest is the chunk currently being migrated into; it is never
// victimized. Returns false when the engine declined to evict right now.
func (d *Driver) evictOne(dest *chunkState) bool {
	d.mem.NoteOversubscribed()
	d.ehost.dest = dest
	ok := d.evictor.EvictOne(&d.ehost)
	d.ehost.dest = nil
	return ok
}

// evictionHost is the driver's implementation of mm.EvictionHost: the
// capacity-management view an EvictionEngine sees. It exposes candidate
// collection at both granularities and applies the engine's choice,
// keeping all residency bookkeeping (TLB shootdowns, counters, tree
// occupancy, write-back) inside the driver. The host is embedded in the
// Driver and reuses its scratch slices, so victim selection allocates
// nothing in steady state.
//
// Candidates returned by ChunkCandidates/BlockCandidates are valid only
// until the next collection call, and an Evict index refers to the most
// recent collection.
type evictionHost struct {
	d *Driver
	// dest is the chunk being migrated into during the current EvictOne
	// call; excluded from candidacy.
	dest *chunkState
	// blockMode records which granularity the last collection used, so
	// Evict applies the choice to the right scratch set.
	blockMode bool
}

// ChunkCandidates collects the 2MB-granularity eviction candidates:
// exactly the chunks the pass may evict, so pinned chunks are never
// scored. The relaxed pass lists every chunk in the evictable index
// (resident blocks, none on the wire), guaranteeing forward progress
// when the FIFO head blocks everything; the strict pass further drops
// chunks with queued migrations and recently touched chunks (the
// recency guard).
func (h *evictionHost) ChunkCandidates(strict bool) []evict.Candidate {
	d := h.d
	h.blockMode = false
	cands := d.candScratch[:0]
	states := d.chunkScratch[:0]
	// Ascending bit order keeps the candidate list sorted by unit
	// number, which is what victim selection's determinism relies on.
	for w, word := range d.evictable {
		for ; word != 0; word &= word - 1 {
			num := w*64 + bits.TrailingZeros64(word)
			cs := d.chunkArr[num]
			// Freshly landed or recently touched chunks are protected in
			// the strict pass: their counters have not caught up yet and
			// evicting them re-faults the active working set (LFU
			// cold-start). The relaxed pass ignores the guard.
			if cs == h.dest || strict && d.strictPinned(cs) {
				continue
			}
			first := cs.info.FirstBlock()
			cands = append(cands, evict.Candidate{
				Unit:       uint64(num),
				LastAccess: cs.lastAccess,
				Score:      d.ctrs.SumCounts(uint64(first), cs.info.Blocks()),
				Dirty:      d.chunkDirty(cs),
				Full:       cs.pf.Tree().Full(),
			})
			states = append(states, cs)
		}
	}
	d.candScratch, d.chunkScratch = cands, states
	return cands
}

// BlockCandidates collects the 64KB-granularity eviction candidates
// (the block-granularity ablation): every resident block outside the
// destination chunk, minus, in the strict pass, blocks inside the
// recency guard.
func (h *evictionHost) BlockCandidates(strict bool) []evict.Candidate {
	d := h.d
	h.blockMode = true
	cands := d.candScratch[:0]
	nums := d.numScratch[:0]
	owners := d.ownerScratch[:0]
	// Chunk-index order implies ascending block numbers: a chunk's
	// blocks are contiguous, so the candidate list comes out sorted
	// by unit without any extra work.
	for _, cs := range d.chunkArr {
		if cs == nil || cs.blocks[resident] == 0 || cs == h.dest {
			continue
		}
		first := cs.info.FirstBlock()
		for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
			bs := d.blockAt(b)
			if bs == nil || bs.phase != resident || strict && d.recent(bs.lastAccess) {
				continue
			}
			cands = append(cands, evict.Candidate{
				Unit:       uint64(b),
				LastAccess: bs.lastAccess,
				Score:      d.ctrs.Count(uint64(b)),
				Dirty:      bs.dirty,
				Full:       true,
			})
			nums = append(nums, b)
			owners = append(owners, cs)
		}
	}
	d.candScratch, d.numScratch, d.ownerScratch = cands, nums, owners
	return cands
}

// strictPinned reports whether the strict pass pins the chunk: queued
// or in-flight migrations, or a touch inside the recency guard.
func (d *Driver) strictPinned(cs *chunkState) bool {
	return cs.pinnedStandard() || d.recent(cs.lastAccess)
}

// recent reports whether a unit last touched at t is inside the strict
// pass's recency guard.
func (d *Driver) recent(t sim.Cycle) bool {
	g := d.cfg.EvictionRecencyGuard
	return g > 0 && d.eng.Now()-t < g
}

// Evict applies the engine's choice: idx indexes the most recent
// collection, strict tells which pass chose it (for the selection
// metrics and the no-pinned-victim invariant, which re-derives
// pinning from the victim's live state rather than trusting the
// collection).
func (h *evictionHost) Evict(idx int, strict bool) {
	d := h.d
	if !h.blockMode {
		cs := d.chunkScratch[idx]
		pinned := cs.blocks[inFlight] > 0 || strict && d.strictPinned(cs)
		d.noteVictim(uint64(cs.info.Num), strict, pinned)
		d.evictChunk(cs)
		return
	}
	b, cs := d.numScratch[idx], d.ownerScratch[idx]
	bs := d.blockAt(b)
	d.noteVictim(uint64(b), strict, strict && d.recent(bs.lastAccess))
	d.move(cs, bs, onHost)
	d.ctrs.NoteEviction(uint64(b))
	bs.everEvicted = true
	d.st.TLBShootdowns += d.gmmuTLB.invalidateRange(memunits.FirstPageOfBlock(b), memunits.PagesPerBlock)
	dirty := uint64(0)
	if bs.dirty {
		dirty = 1
		bs.dirty = false
	}
	cs.pf.Tree().MarkEmpty(int(b - cs.info.FirstBlock()))
	if o := d.o; o != nil {
		o.victimTrips.Observe(d.ctrs.RoundTrips(uint64(b)))
		o.tr.Emit(obs.Span{
			Name: "evict_block", Cat: "evict", TID: obs.TrackEvict,
			Start: uint64(d.eng.Now()), Value: 1,
		})
	}
	d.finishEviction(1, dirty)
}

// chunkDirty reports whether any resident block of the chunk is dirty.
func (d *Driver) chunkDirty(cs *chunkState) bool {
	first := cs.info.FirstBlock()
	for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
		if bs := d.blockAt(b); bs != nil && bs.phase == resident && bs.dirty {
			return true
		}
	}
	return false
}

// evictChunk evicts every resident block of the chunk, writing dirty
// data back over the device-to-host channel.
func (d *Driver) evictChunk(cs *chunkState) {
	first := cs.info.FirstBlock()
	var evictedBlocks, dirtyBlocks uint64
	for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
		bs := d.blockAt(b)
		if bs == nil || bs.phase != resident {
			continue
		}
		d.move(cs, bs, onHost)
		d.ctrs.NoteEviction(uint64(b))
		bs.everEvicted = true
		evictedBlocks++
		if bs.dirty {
			dirtyBlocks++
			bs.dirty = false
		}
		d.st.TLBShootdowns += d.gmmuTLB.invalidateRange(memunits.FirstPageOfBlock(b), memunits.PagesPerBlock)
	}
	if evictedBlocks == 0 {
		panic("uvm: evicting chunk with no resident blocks")
	}
	// Rebuild tree occupancy: only pending (faulted, queued or in-flight)
	// blocks remain claimed.
	tree := cs.pf.Tree()
	tree.Clear()
	for b := first; b < first+memunits.BlockNum(cs.info.Blocks()); b++ {
		if bs := d.blockAt(b); bs != nil && bs.phase != onHost {
			tree.MarkOccupied(int(b - first))
		}
	}
	if o := d.o; o != nil {
		o.victimTrips.Observe(d.ctrs.MaxRoundTrips(uint64(first), uint64(cs.info.Blocks())))
		o.tr.Emit(obs.Span{
			Name: "evict_chunk", Cat: "evict", TID: obs.TrackEvict,
			Start: uint64(d.eng.Now()), Value: evictedBlocks,
		})
	}
	d.finishEviction(evictedBlocks, dirtyBlocks)
}

// finishEviction accounts for evicted blocks and schedules the dirty
// write-back on the device-to-host channel. The write-back completion
// re-drains the capacity-wait queue.
func (d *Driver) finishEviction(evictedBlocks, dirtyBlocks uint64) {
	d.st.EvictedPages += evictedBlocks * memunits.PagesPerBlock
	d.mem.Release(evictedBlocks * memunits.PagesPerBlock)
	if dirtyBlocks > 0 {
		d.st.WrittenBackPages += dirtyBlocks * memunits.PagesPerBlock
		d.wbInFlight++
		d.link.Transfer(interconnect.DeviceToHost, dirtyBlocks*memunits.BlockSize, d.drainFn)
	}
}

package uvm

import (
	"fmt"
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
	d.dest = dest
	ok := d.evictor.EvictOne((*evictionHost)(d))
	d.dest = nil
	return ok
}

// evictionHost is the driver as the mm.EvictionHost an EvictionEngine
// sees: it lists candidates at the configured eviction granularity and
// evicts the engine's choice, keeping all residency bookkeeping inside
// the driver. Listing reuses candScratch, so victim selection allocates
// nothing in steady state.
type evictionHost Driver

// blockGrain reports whether eviction works on 64KB basic blocks (the
// granularity ablation) rather than 2MB chunks.
func (d *Driver) blockGrain() bool { return d.cfg.EvictionGranularity == memunits.BlockSize }

// Candidates lists the units the pass may evict, chunks or blocks by
// the configured granularity.
func (h *evictionHost) Candidates(strict bool) []evict.Candidate {
	d := (*Driver)(h)
	if d.blockGrain() {
		d.candScratch = d.blockCandidates(d.candScratch[:0], strict)
	} else {
		d.candScratch = d.chunkCandidates(d.candScratch[:0], strict)
	}
	return d.candScratch
}

// chunkCandidates appends the 2MB-granularity eviction candidates to
// cands: exactly the chunks the pass may evict, so pinned chunks are
// never scored. The relaxed pass lists every chunk in the evictable
// index (resident blocks, none on the wire), guaranteeing forward
// progress when the FIFO head blocks everything; the strict pass
// further drops chunks with queued migrations and recently touched
// chunks (the recency guard).
func (d *Driver) chunkCandidates(cands []evict.Candidate, strict bool) []evict.Candidate {
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
			if cs == d.dest || strict && d.strictPinned(cs) {
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
		}
	}
	return cands
}

// blockCandidates appends the 64KB-granularity eviction candidates to
// cands: every resident block outside the destination chunk, minus, in
// the strict pass, blocks inside the recency guard.
func (d *Driver) blockCandidates(cands []evict.Candidate, strict bool) []evict.Candidate {
	// Chunk-index order implies ascending block numbers: a chunk's
	// blocks are contiguous, so the candidate list comes out sorted
	// by unit without any extra work.
	for _, cs := range d.chunkArr {
		if cs == nil || cs.blocks[resident] == 0 || cs == d.dest {
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
		}
	}
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

// Evict evicts the listed unit: a chunk number or a block number by the
// configured granularity. strict tells which pass chose it, for the
// selection metrics and the no-pinned-victim invariant, which
// re-derives pinning from the victim's live state rather than trusting
// the collection. A unit no relaxed pass could list is an engine bug
// and panics.
func (h *evictionHost) Evict(unit uint64, strict bool) {
	d := (*Driver)(h)
	if !d.blockGrain() {
		cs := d.chunkAt(memunits.ChunkNum(unit))
		if cs == nil || !d.isEvictable(cs.info.Num) || cs == d.dest {
			panic(fmt.Sprintf("uvm: eviction engine %s chose chunk %d, which no candidate pass lists", d.evictor.Name(), unit))
		}
		pinned := cs.blocks[inFlight] > 0 || strict && d.strictPinned(cs)
		d.noteVictim(unit, strict, pinned)
		d.evictChunk(cs)
		return
	}
	b := memunits.BlockNum(unit)
	bs, cs := d.blockAt(b), d.chunkAt(memunits.ChunkOfBlock(b))
	if bs == nil || bs.phase != resident || cs == d.dest {
		panic(fmt.Sprintf("uvm: eviction engine %s chose block %d, which no candidate pass lists", d.evictor.Name(), unit))
	}
	d.noteVictim(unit, strict, strict && d.recent(bs.lastAccess))
	dirty := d.evictBlock(cs, b, bs)
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

// evictBlock takes resident block b of chunk cs back to the host: its
// eviction round trip on the counters, its thrash mark and its TLB
// shootdown. It clears the dirty flag and returns the blocks to write
// back (1 if dirty, else 0); the caller keeps the chunk's tree and
// schedules the write-back.
func (d *Driver) evictBlock(cs *chunkState, b memunits.BlockNum, bs *blockState) (dirty uint64) {
	d.move(cs, bs, onHost)
	d.ctrs.NoteEviction(uint64(b))
	bs.everEvicted = true
	d.st.TLBShootdowns += d.gmmuTLB.invalidateRange(memunits.FirstPageOfBlock(b), memunits.PagesPerBlock)
	if bs.dirty {
		dirty = 1
		bs.dirty = false
	}
	return dirty
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
		evictedBlocks++
		dirtyBlocks += d.evictBlock(cs, b, bs)
	}
	if evictedBlocks == 0 {
		panic("uvm: evicting chunk with no resident blocks")
	}
	// Rebuild tree occupancy: every block not on host stays claimed.
	// That marks faulted leaves, which the fault path marks only when
	// their batch closes (OnFault). Marking only queued and later blocks
	// would match it but moves cycle counts (bfs and sssp at 150-200%
	// oversubscription at scale 0.3) and with them the benchmark's
	// simd-mixed payload digest, so results keep this form until a
	// benchmark change can re-record that digest.
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

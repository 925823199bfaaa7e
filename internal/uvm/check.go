package uvm

import (
	"fmt"

	"uvmsim/internal/memunits"
)

// CheckConsistency walks the driver's entire state and verifies the
// cross-structure invariants that every reachable state must satisfy at
// a quiescent point (no event mid-flight). Integration and property
// tests call it after runs; it returns the first violation found.
//
// Invariants:
//  1. Tree occupancy mirrors block state: a chunk-tree leaf is occupied
//     iff its block is resident or pending.
//  2. Chunk residentBlocks equals the number of resident blocks.
//  3. Device memory accounting equals resident plus in-flight pages
//     (frames are reserved at dispatch, before the transfer lands).
//  4. Pending bookkeeping: scheduled implies pending; a resident block
//     is never pending; waiters only exist on pending blocks.
//  5. Queued/in-flight counters are non-negative and zero when idle.
//  6. A chunk's bit in the evictable index is set iff it has resident
//     blocks and none in flight.
func (d *Driver) CheckConsistency() error { return d.checkConsistency(false) }

// CheckConsistencyMidRun verifies the same invariants between arbitrary
// events of a running simulation. One relaxation applies: a block whose
// fault has been raised but whose batch has not been processed yet
// (pending, not scheduled) may not have its tree leaf marked — the tree
// is updated when the batch closes, one fault-handling latency later.
// The periodic observability sweep uses this form.
func (d *Driver) CheckConsistencyMidRun() error { return d.checkConsistency(true) }

func (d *Driver) checkConsistency(midRun bool) error {
	var residentPages, inFlightPages uint64
	for num, cs := range d.chunkArr {
		if cs == nil {
			if d.isEvictable(memunits.ChunkNum(num)) {
				return fmt.Errorf("uvm: unmaterialized chunk %d has its evictable bit set", num)
			}
			continue
		}
		first := cs.info.FirstBlock()
		n := cs.info.Blocks()
		tree := cs.pf.Tree()
		var resident int
		for b := first; b < first+n; b++ {
			bs := d.blockAt(b)
			var isResident, isPending, isScheduled bool
			if bs != nil {
				isResident, isPending, isScheduled = bs.resident, bs.pending, bs.scheduled
			}
			leaf := int(b - first)
			occ := tree.Occupied(leaf)
			mismatch := occ != (isResident || isPending)
			if midRun && mismatch && !occ && isPending && !isScheduled {
				// Fault raised, batch not yet processed: legal window.
				mismatch = false
			}
			if mismatch {
				return fmt.Errorf("uvm: chunk %d leaf %d occupancy=%v but resident=%v pending=%v",
					num, leaf, occ, isResident, isPending)
			}
			if isResident {
				resident++
				residentPages += memunits.PagesPerBlock
			}
			if bs != nil {
				if bs.scheduled && !bs.pending {
					return fmt.Errorf("uvm: block %d scheduled but not pending", b)
				}
				if bs.resident && bs.pending {
					return fmt.Errorf("uvm: block %d both resident and pending", b)
				}
				if len(bs.waiters) > 0 && !bs.pending {
					return fmt.Errorf("uvm: block %d has %d waiters but is not pending", b, len(bs.waiters))
				}
			}
		}
		if resident != cs.residentBlocks {
			return fmt.Errorf("uvm: chunk %d residentBlocks=%d but counted %d", num, cs.residentBlocks, resident)
		}
		if cs.queuedBlocks < 0 || cs.inFlightBlocks < 0 {
			return fmt.Errorf("uvm: chunk %d negative pending counters (%d queued, %d in flight)",
				num, cs.queuedBlocks, cs.inFlightBlocks)
		}
		if want := cs.residentBlocks > 0 && cs.inFlightBlocks == 0; d.isEvictable(memunits.ChunkNum(num)) != want {
			return fmt.Errorf("uvm: chunk %d evictable bit=%v but %d resident, %d in flight",
				num, !want, cs.residentBlocks, cs.inFlightBlocks)
		}
		inFlightPages += uint64(cs.inFlightBlocks) * memunits.PagesPerBlock
	}
	if residentPages+inFlightPages != d.mem.AllocatedPages() {
		return fmt.Errorf("uvm: device accounting %d pages but %d resident + %d in flight",
			d.mem.AllocatedPages(), residentPages, inFlightPages)
	}
	if !d.PendingWork() {
		for b := range d.blockArr {
			if d.blockArr[b].pending {
				return fmt.Errorf("uvm: idle driver but block %d still pending", b)
			}
		}
	}
	return nil
}

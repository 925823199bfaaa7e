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
//     iff its block is not on host.
//  2. A chunk's stored per-phase counts equal the counts of its blocks.
//  3. Device memory accounting equals resident plus in-flight pages
//     (frames are reserved at dispatch, before the transfer lands).
//  4. Waiters only exist on pending (faulted, queued or in-flight)
//     blocks, and a block on host is never dirty.
//  5. An idle driver has no pending block.
//  6. A chunk's bit in the evictable index is set iff it has resident
//     blocks and none in flight.
func (d *Driver) CheckConsistency() error { return d.checkConsistency(false) }

// CheckConsistencyMidRun verifies the same invariants between arbitrary
// events of a running simulation. One relaxation applies: a faulted
// block (its batch not processed yet) may not have its tree leaf marked
// — the tree is updated when the batch closes, one fault-handling
// latency later. The periodic observability sweep uses this form.
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
		tree := cs.pf.Tree()
		var counted [numPhases]int32
		var untouched blockState
		for b := first; b < first+cs.info.Blocks(); b++ {
			bs := d.blockAt(b)
			if bs == nil {
				bs = &untouched
			}
			leaf := int(b - first)
			occ := tree.Occupied(leaf)
			if occ != (bs.phase != onHost) && !(midRun && !occ && bs.phase == faulted) {
				return fmt.Errorf("uvm: chunk %d leaf %d occupancy=%v but phase %v", num, leaf, occ, bs.phase)
			}
			if bs.phase >= queued {
				counted[bs.phase]++
			}
			if len(bs.waiters) > 0 && (bs.phase == onHost || bs.phase == resident) {
				return fmt.Errorf("uvm: block %d has %d waiters in phase %v", b, len(bs.waiters), bs.phase)
			}
			if bs.dirty && bs.phase == onHost {
				return fmt.Errorf("uvm: block %d is dirty on host", b)
			}
		}
		if counted != cs.blocks {
			return fmt.Errorf("uvm: chunk %d stores per-phase counts %v but counted %v", num, cs.blocks, counted)
		}
		if want := cs.blocks[resident] > 0 && cs.blocks[inFlight] == 0; d.isEvictable(memunits.ChunkNum(num)) != want {
			return fmt.Errorf("uvm: chunk %d evictable bit=%v but %d resident, %d in flight",
				num, !want, cs.blocks[resident], cs.blocks[inFlight])
		}
		residentPages += uint64(cs.blocks[resident]) * memunits.PagesPerBlock
		inFlightPages += uint64(cs.blocks[inFlight]) * memunits.PagesPerBlock
	}
	if residentPages+inFlightPages != d.mem.AllocatedPages() {
		return fmt.Errorf("uvm: device accounting %d pages but %d resident + %d in flight",
			d.mem.AllocatedPages(), residentPages, inFlightPages)
	}
	if !d.PendingWork() {
		for b := range d.blockArr {
			if p := d.blockArr[b].phase; p != onHost && p != resident {
				return fmt.Errorf("uvm: idle driver but block %d still %v", b, p)
			}
		}
	}
	return nil
}

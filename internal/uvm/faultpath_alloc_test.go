package uvm

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

// TestFaultPathZeroAllocs asserts that once the driver's pools have
// grown, the far-fault path allocates nothing: each round sweeps one
// chunk of an allocation twice the device's size, so it faults, batches,
// prefetches through the tree, dispatches and lands migrations, and
// evicts (writing back dirty blocks) to make room.
func TestFaultPathZeroAllocs(t *testing.T) {
	const chunks = 8
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = chunks / 2 * memunits.ChunkSize
	}, chunks*memunits.ChunkSize)
	completed := 0
	done := func() { completed++ }
	chunk := 0
	round := func() {
		base := r.a.Base + memunits.Addr(uint64(chunk%chunks)*memunits.ChunkSize)
		for blk := uint64(0); blk < memunits.BlocksPerChunk; blk++ {
			r.d.Access(base+memunits.Addr(blk*memunits.BlockSize), blk%4 == 0, done)
			r.eng.Run()
		}
		chunk++
	}
	for i := 0; i < 2*chunks; i++ {
		round()
	}
	before := *r.d.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, round)
	st := r.d.Stats()
	if completed != (2*chunks+runs+1)*memunits.BlocksPerChunk {
		t.Fatalf("%d of %d accesses completed", completed, (2*chunks+runs+1)*memunits.BlocksPerChunk)
	}
	if st.FarFaults == before.FarFaults || st.PrefetchedPages == before.PrefetchedPages ||
		st.EvictedPages == before.EvictedPages || st.WrittenBackPages == before.WrittenBackPages {
		t.Fatalf("rounds missed a fault-path stage: before %+v after %+v", before, *st)
	}
	if allocs != 0 {
		t.Fatalf("fault path allocated %.1f times per round, want 0", allocs)
	}
}

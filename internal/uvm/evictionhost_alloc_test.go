package uvm

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
)

// TestVictimSelectionZeroAllocs asserts that once a driver's candidate
// scratch has grown, collecting chunk candidates through the evictable
// index and selecting a victim from them performs zero heap
// allocations, under both replacement policies and both passes.
func TestVictimSelectionZeroAllocs(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 * memunits.ChunkSize
	}, 8*memunits.ChunkSize)
	touchAll(t, r)
	h := &r.d.ehost
	if len(h.ChunkCandidates(false)) == 0 {
		t.Fatal("no resident chunk to select from")
	}
	for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		pol := evict.New(kind)
		allocs := testing.AllocsPerRun(100, func() {
			for _, strict := range [...]bool{true, false} {
				pol.SelectVictim(h.ChunkCandidates(strict))
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: ChunkCandidates+SelectVictim allocated %.1f times per run, want 0", kind, allocs)
		}
	}
}

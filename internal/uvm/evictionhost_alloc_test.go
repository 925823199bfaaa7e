package uvm

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
)

// TestVictimSelectionZeroAllocs asserts that once a driver's candidate
// scratch has grown, listing candidates through the host and selecting
// a victim from them performs zero heap allocations, at both eviction
// granularities, under both replacement policies and in both passes.
func TestVictimSelectionZeroAllocs(t *testing.T) {
	for _, gran := range []uint64{memunits.ChunkSize, memunits.BlockSize} {
		r := newRig(t, func(c *config.Config) {
			c.DeviceMemBytes = 4 * memunits.ChunkSize
			c.EvictionGranularity = gran
		}, 8*memunits.ChunkSize)
		touchAll(t, r)
		h := (*evictionHost)(r.d)
		if len(h.Candidates(false)) == 0 {
			t.Fatalf("granularity %d: no resident unit to select from", gran)
		}
		for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
			pol := evict.New(kind)
			allocs := testing.AllocsPerRun(100, func() {
				for _, strict := range [...]bool{true, false} {
					pol.SelectVictim(h.Candidates(strict))
				}
			})
			if allocs != 0 {
				t.Fatalf("granularity %d, %v: Candidates+SelectVictim allocated %.1f times per run, want 0", gran, kind, allocs)
			}
		}
	}
}

package uvm

import (
	"fmt"
	"testing"
	"unsafe"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
)

// TestBlockStateSize guards the block array's footprint: one blockState
// per 64KB block of every managed allocation, recycled from cell to cell.
// The phase, dirty and everEvicted bytes share the word before the
// recency stamp, so the block stays at 40 bytes.
func TestBlockStateSize(t *testing.T) {
	if got := unsafe.Sizeof(blockState{}); got != 40 {
		t.Fatalf("blockState is %d bytes, want 40", got)
	}
}

// TestMoveTakesOnlyLifecycleEdges tries every phase pair: the seven
// lifecycle edges move the block and its chunk's counts, and every other
// pair, staying put included, panics.
func TestMoveTakesOnlyLifecycleEdges(t *testing.T) {
	legal := map[[2]phase]bool{
		{onHost, faulted}:    true, // raiseFault
		{onHost, queued}:     true, // processBatch: a prefetched leaf
		{faulted, queued}:    true, // processBatch: a demand leaf
		{queued, inFlight}:   true, // dispatch
		{queued, onHost}:     true, // demoteMigration
		{inFlight, resident}: true, // landMigration
		{resident, onHost}:   true, // Evict, evictChunk
	}
	for from := onHost; from < numPhases; from++ {
		for to := onHost; to < numPhases; to++ {
			t.Run(fmt.Sprintf("%v-%v", from, to), func(t *testing.T) {
				r := newRig(t, nil, 4<<20)
				cs := r.d.chunk(memunits.ChunkOf(r.a.Base))
				bs := &blockState{phase: from}
				if from >= queued {
					cs.blocks[from] = 1
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					r.d.move(cs, bs, to)
					return false
				}()
				if panicked == legal[[2]phase{from, to}] {
					t.Fatalf("move %v -> %v panicked=%v, want %v", from, to, panicked, !panicked)
				}
				if panicked {
					return
				}
				var want [numPhases]int32
				if to >= queued {
					want[to] = 1
				}
				if bs.phase != to || cs.blocks != want {
					t.Fatalf("after move: phase %v, counts %v; want %v, %v", bs.phase, cs.blocks, to, want)
				}
			})
		}
	}
}

// A write merged onto a block that is then demoted to remote access is
// served as a remote write, and the block returns to the host clean.
func TestDemotedWriteLeavesBlockClean(t *testing.T) {
	r := newPipelineRig(t, func(cfg *config.Config) {
		cfg.DeviceMemBytes = 2 * memunits.ChunkSize
	}, 4*memunits.ChunkSize, func(p *mm.Pipeline) { p.Evictor = &refusingEvictor{} })
	touchAll(t, r)
	last := r.a.Base + memunits.Addr(r.a.Size-memunits.BlockSize)
	before := r.d.Stats().RemoteWrites
	r.syncAccess(t, last, true)
	if r.d.Stats().RemoteWrites == before {
		t.Fatal("the write to a block that cannot migrate was not served remotely")
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

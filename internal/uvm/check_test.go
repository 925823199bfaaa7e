package uvm

import (
	"math/rand"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

// TestConsistencyDuringRandomTraffic fires randomized access streams at
// the driver under every policy and checks the full state invariants
// both mid-flight (at every quiescent point) and at the end. This is
// the driver's main stress/property test.
func TestConsistencyDuringRandomTraffic(t *testing.T) {
	for _, pol := range config.Policies() {
		for _, gran := range []uint64{memunits.ChunkSize, memunits.BlockSize} {
			pol, gran := pol, gran
			name := pol.String() + "/" + memunits.HumanBytes(gran)
			t.Run(name, func(t *testing.T) {
				r := newRig(t, func(c *config.Config) {
					*c = c.WithPolicy(pol)
					c.DeviceMemBytes = 4 << 20 // 2 chunks: heavy pressure
					c.EvictionGranularity = gran
					c.Penalty = 4
				}, 16<<20)
				rng := rand.New(rand.NewSource(int64(pol)*7 + int64(gran)))
				pages := r.a.UserSize / memunits.PageSize
				pending := 0
				for i := 0; i < 3000; i++ {
					addr := r.a.Base + uint64(rng.Int63n(int64(pages)))*memunits.PageSize +
						uint64(rng.Intn(memunits.PageSize/128))*128
					write := rng.Intn(3) == 0
					if at, ok := r.d.TryFastAccess(addr, write); ok {
						_ = at
					} else {
						pending++
						r.d.Access(addr, write, func() { pending-- })
					}
					if i%97 == 0 {
						// Drain to a quiescent point and check everything.
						r.eng.Run()
						if pending != 0 {
							t.Fatalf("iteration %d: %d accesses never completed", i, pending)
						}
						if err := r.d.CheckConsistency(); err != nil {
							t.Fatalf("iteration %d: %v", i, err)
						}
					}
				}
				r.eng.Run()
				if pending != 0 {
					t.Fatalf("%d accesses never completed", pending)
				}
				if err := r.d.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
				r.d.Finalize()
				if err := r.d.Stats().Validate(); err != nil {
					t.Fatal(err)
				}
				if r.d.mem.AllocatedPages() > r.d.mem.TotalPages() {
					t.Fatal("capacity exceeded")
				}
			})
		}
	}
}

// TestConsistencyCleanDriver verifies the checker accepts a fresh driver
// and one after simple traffic.
func TestConsistencyCleanDriver(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatalf("fresh driver inconsistent: %v", err)
	}
	r.syncAccess(t, r.a.Base, true)
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatalf("after access: %v", err)
	}
}

// TestConsistencyDetectsCorruption corrupts internal state and expects
// both checker forms to object — guarding against the checker rotting
// into a no-op.
func TestConsistencyDetectsCorruption(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.syncAccess(t, r.a.Base, false)
	cs := r.d.chunk(memunits.ChunkOf(r.a.Base))
	c := cs.info.Num
	// An on-host block of the touched chunk. block() can grow the array,
	// so both pointers are taken after the search.
	hostB := cs.info.FirstBlock()
	for r.d.block(hostB).phase != onHost {
		hostB++
	}
	bs, host := r.d.blockAt(memunits.BlockOf(r.a.Base)), r.d.blockAt(hostB)
	for _, row := range []struct {
		name        string
		break_, fix func()
	}{
		// Move the block without fixing the tree or accounting.
		{"phase", func() { bs.phase = onHost }, func() { bs.phase = resident }},
		{"resident count", func() { cs.blocks[resident]++ }, func() { cs.blocks[resident]-- }},
		{"queued count", func() { cs.blocks[queued]++ }, func() { cs.blocks[queued]-- }},
		{"in-flight count", func() { cs.blocks[inFlight]++ }, func() { cs.blocks[inFlight]-- }},
		{"dirty on-host block", func() { host.dirty = true }, func() { host.dirty = false }},
		{"device accounting", func() { r.d.mem.Allocate(1) }, func() { r.d.mem.Release(1) }},
		{"evictable bit",
			func() { r.d.evictable[c/64] ^= 1 << (c % 64) },
			func() { r.d.evictable[c/64] ^= 1 << (c % 64) }},
	} {
		row.break_()
		if err := r.d.CheckConsistency(); err == nil {
			t.Errorf("checker accepted a corrupted %s", row.name)
		}
		if err := r.d.CheckConsistencyMidRun(); err == nil {
			t.Errorf("mid-run checker accepted a corrupted %s", row.name)
		}
		row.fix()
	}
	if err := r.d.CheckConsistency(); err != nil {
		t.Fatalf("restored state still inconsistent: %v", err)
	}
}

package uvm

import (
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
)

// testRig bundles a driver with its engine and one allocation.
type testRig struct {
	eng   *sim.Engine
	d     *Driver
	space *alloc.Space
	a     *alloc.Allocation
}

func newRig(t *testing.T, mut func(*config.Config), allocBytes uint64) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.DeviceMemBytes = 8 << 20 // 4 chunks by default
	if mut != nil {
		mut(&cfg)
	}
	eng := sim.NewEngine()
	eng.SetEventBudget(50_000_000)
	space := alloc.NewSpace()
	a := space.Alloc("data", allocBytes, false)
	return &testRig{eng: eng, d: New(eng, cfg, space), space: space, a: a}
}

// syncAccess issues one access and runs the engine until it completes,
// returning the completion cycle.
func (r *testRig) syncAccess(t *testing.T, addr memunits.Addr, write bool) sim.Cycle {
	t.Helper()
	var at sim.Cycle
	fired := false
	r.d.Access(addr, write, func() { fired = true; at = r.eng.Now() })
	r.eng.Run()
	if !fired {
		t.Fatalf("access to %#x never completed", addr)
	}
	return at
}

func TestFirstTouchMigration(t *testing.T) {
	r := newRig(t, nil, 4<<20) // Disabled policy
	start := r.eng.Now()
	at := r.syncAccess(t, r.a.Base, false)
	// Completion must include the fault latency, the 64KB transfer and
	// the DRAM access.
	faultLat := sim.Cycle(r.d.cfg.FarFaultLatencyCycles())
	if at < start+faultLat {
		t.Fatalf("completion %d earlier than fault latency %d", at, faultLat)
	}
	st := r.d.Stats()
	if st.FarFaults != 1 || st.FaultBatches != 1 {
		t.Fatalf("faults=%d batches=%d, want 1,1", st.FarFaults, st.FaultBatches)
	}
	if st.MigratedPages != memunits.PagesPerBlock {
		t.Fatalf("migrated %d pages, want %d", st.MigratedPages, memunits.PagesPerBlock)
	}
	if st.PrefetchedPages != 0 {
		t.Fatalf("first touch prefetched %d pages", st.PrefetchedPages)
	}
	if r.d.mem.AllocatedPages() != memunits.PagesPerBlock {
		t.Fatalf("resident %d pages", r.d.mem.AllocatedPages())
	}
}

func TestNearAccessAfterMigration(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.syncAccess(t, r.a.Base, false)
	before := r.eng.Now()
	at, ok := r.d.TryFastAccess(r.a.Base, false)
	if !ok {
		t.Fatal("resident block not served by fast path")
	}
	if at != before+sim.Cycle(r.d.cfg.DRAMLatency) {
		t.Fatalf("near access completes at %d, want %d", at, before+100)
	}
	if r.d.Stats().NearAccesses == 0 {
		t.Fatal("near access not counted")
	}
}

func TestFastPathMissesNonResident(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	if _, ok := r.d.TryFastAccess(r.a.Base, false); ok {
		t.Fatal("fast path hit for non-resident block")
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	defer func() {
		if recover() == nil {
			t.Error("unmapped access did not panic")
		}
	}()
	r.d.Access(0, false, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	r.d.Access(r.a.Base, false, nil)
}

func TestConcurrentFaultsMergeOnBlock(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	completions := 0
	for i := 0; i < 4; i++ {
		r.d.Access(r.a.Base+uint64(i)*memunits.SectorSize, false, func() { completions++ })
	}
	r.eng.Run()
	if completions != 4 {
		t.Fatalf("completions = %d, want 4", completions)
	}
	st := r.d.Stats()
	if st.FarFaults != 1 {
		t.Fatalf("FarFaults = %d, want 1 (merged)", st.FarFaults)
	}
	if st.MigratedPages != memunits.PagesPerBlock {
		t.Fatalf("migrated %d pages, want one block", st.MigratedPages)
	}
}

func TestBatchingSharesFaultLatency(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	// Two faults to different chunks in the same cycle: one batch.
	r.d.Access(r.a.Base, false, func() {})
	r.d.Access(r.a.Base+2<<20, false, func() {})
	r.eng.Run()
	st := r.d.Stats()
	if st.FarFaults != 2 || st.FaultBatches != 1 {
		t.Fatalf("faults=%d batches=%d, want 2,1", st.FarFaults, st.FaultBatches)
	}
}

func TestTreePrefetchThroughDriver(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	// Sequentially touch each 64KB block of the first chunk; the tree
	// prefetcher must bring blocks in bulk, producing fewer faults than
	// blocks and nonzero prefetched pages.
	for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
		r.syncAccess(t, r.a.Base+b*memunits.BlockSize, false)
	}
	st := r.d.Stats()
	if st.FarFaults >= memunits.BlocksPerChunk {
		t.Fatalf("faults = %d, prefetcher ineffective", st.FarFaults)
	}
	if st.PrefetchedPages == 0 {
		t.Fatal("no prefetched pages")
	}
	if st.MigratedPages != memunits.PagesPerChunk {
		t.Fatalf("migrated %d pages, want full chunk %d", st.MigratedPages, memunits.PagesPerChunk)
	}
}

func TestPrefetchNoneMigratesSingleBlocks(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Prefetcher = config.PrefetchNone }, 4<<20)
	for b := uint64(0); b < 8; b++ {
		r.syncAccess(t, r.a.Base+b*memunits.BlockSize, false)
	}
	st := r.d.Stats()
	if st.FarFaults != 8 || st.PrefetchedPages != 0 {
		t.Fatalf("faults=%d prefetched=%d, want 8,0", st.FarFaults, st.PrefetchedPages)
	}
}

func TestAlwaysPolicyDelaysMigration(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAlways)
		c.StaticThreshold = 4
	}, 4<<20)
	// First three reads stay remote.
	for i := 0; i < 3; i++ {
		r.syncAccess(t, r.a.Base, false)
	}
	st := r.d.Stats()
	if st.RemoteReads != 3 || st.FarFaults != 0 {
		t.Fatalf("remote=%d faults=%d, want 3,0", st.RemoteReads, st.FarFaults)
	}
	// Fourth access crosses ts and migrates.
	r.syncAccess(t, r.a.Base, false)
	st = r.d.Stats()
	if st.FarFaults != 1 {
		t.Fatalf("faults=%d after threshold crossing, want 1", st.FarFaults)
	}
	if st.MigratedPages == 0 {
		t.Fatal("no migration after threshold crossing")
	}
}

func TestWriteMigratesImmediatelyUnderAlways(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAlways)
		c.StaticThreshold = 64
	}, 4<<20)
	r.syncAccess(t, r.a.Base, true) // first write
	st := r.d.Stats()
	if st.FarFaults != 1 || st.RemoteWrites != 0 {
		t.Fatalf("write did not migrate immediately: faults=%d remoteW=%d", st.FarFaults, st.RemoteWrites)
	}
}

func TestAdaptiveWriteStaysRemoteBelowThreshold(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAdaptive)
		c.StaticThreshold = 8
		// Pre-fill occupancy so threshold > 1: simulate by allocating
		// memory via another allocation's migration below.
	}, 4<<20)
	// With an empty device the adaptive threshold is 1, so instead force
	// occupancy first: touch a different chunk until resident.
	r.syncAccess(t, r.a.Base+2<<20, false)
	// Occupancy is now 16 pages of 2048: threshold still 1. Write to a
	// fresh block migrates (threshold 1). This documents the boundary:
	// adaptive at low occupancy behaves like first touch even for writes.
	r.syncAccess(t, r.a.Base, true)
	if r.d.Stats().RemoteWrites != 0 {
		t.Fatal("adaptive at low occupancy should migrate writes (td=1)")
	}
}

func TestRemoteWriteUnderAdaptiveOversubscription(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAdaptive)
		c.StaticThreshold = 8
		c.Penalty = 8
		c.DeviceMemBytes = 4 << 20 // 2 chunks
	}, 12<<20)
	// Fill device memory (2 chunks) and push one block past capacity.
	// The adaptive pre-oversubscription threshold peaks at ts+1 = 9, so
	// ten touches per block guarantee migration regardless of occupancy;
	// the chunk past capacity then forces the first eviction, which
	// latches the oversubscription regime.
	for chunk := uint64(0); chunk < 3; chunk++ {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			for i := 0; i < 10; i++ {
				r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, false)
			}
		}
	}
	if !r.d.mem.Oversubscribed() {
		t.Fatal("oversubscription not latched")
	}
	preW := r.d.Stats().RemoteWrites
	// A write to a never-touched block: td = ts*(r+1)*p = 64, so the
	// write must be served remotely.
	r.syncAccess(t, r.a.Base+5<<20, true)
	if r.d.Stats().RemoteWrites != preW+1 {
		t.Fatal("write under adaptive oversubscription did not stay remote")
	}
}

func TestEvictionAndThrashAccounting(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20 // 2 chunks
	}, 12<<20)
	touchChunk := func(chunk uint64) {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, false)
		}
	}
	touchChunk(0)
	touchChunk(1)
	if r.d.Stats().EvictedPages != 0 {
		t.Fatal("eviction before capacity pressure")
	}
	touchChunk(2) // must evict chunk 0 (LRU)
	st := r.d.Stats()
	if st.EvictedPages != memunits.PagesPerChunk {
		t.Fatalf("evicted %d pages, want one chunk", st.EvictedPages)
	}
	if !r.d.mem.Oversubscribed() {
		t.Fatal("oversubscription not latched")
	}
	if st.ThrashedPages != 0 {
		t.Fatal("thrash counted before any re-migration")
	}
	preMigrated := st.MigratedPages
	touchChunk(0) // re-migrate previously evicted chunk: thrash
	st = r.d.Stats()
	if st.ThrashedPages != st.MigratedPages-preMigrated {
		t.Fatalf("thrashed %d != re-migrated %d", st.ThrashedPages, st.MigratedPages-preMigrated)
	}
	if st.ThrashedPages == 0 {
		t.Fatal("no thrash recorded for re-migration")
	}
	// Clean (read-only) evictions must not write back.
	if st.WrittenBackPages != 0 {
		t.Fatalf("read-only run wrote back %d pages", st.WrittenBackPages)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
	}, 12<<20)
	touchChunk := func(chunk uint64, write bool) {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, write)
		}
	}
	touchChunk(0, true)
	touchChunk(1, true)
	touchChunk(2, true) // evicts dirty chunk
	st := r.d.Stats()
	if st.WrittenBackPages == 0 {
		t.Fatal("dirty eviction did not write back")
	}
	if st.WrittenBackPages > st.EvictedPages {
		t.Fatalf("wb %d > evicted %d", st.WrittenBackPages, st.EvictedPages)
	}
	r.d.Finalize()
	if st.D2HBytes == 0 {
		t.Fatal("no device-to-host bytes despite write-back")
	}
}

func TestLFUKeepsHotChunk(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
		c.Replacement = config.ReplaceLFU
	}, 12<<20)
	touchChunk := func(chunk uint64) {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, false)
		}
	}
	touchChunk(0)
	// Hammer chunk 0 so its counters dwarf chunk 1's.
	for i := 0; i < 50; i++ {
		touchChunk(0)
	}
	touchChunk(1)
	// Re-touch chunk 0 so both chunks are inside the eviction recency
	// guard: victim selection then falls through to pure LFU, which must
	// pick the cold chunk regardless of recency.
	touchChunk(0)
	touchChunk(2) // eviction: LFU must pick cold chunk 1, not hot chunk 0
	// Chunk 0 must still be resident: a fresh access is a near access.
	if _, ok := r.d.TryFastAccess(r.a.Base, false); !ok {
		t.Fatal("LFU evicted the hot chunk")
	}
	if _, ok := r.d.TryFastAccess(r.a.Base+2<<20, false); ok {
		t.Fatal("cold chunk still resident; nothing was evicted?")
	}
}

func TestBlockGranularityEviction(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
		c.EvictionGranularity = memunits.BlockSize
		c.Prefetcher = config.PrefetchNone
	}, 12<<20)
	// Fill 2 chunks block by block (no prefetch), then one more block.
	for i := uint64(0); i < 2*memunits.BlocksPerChunk; i++ {
		r.syncAccess(t, r.a.Base+i*memunits.BlockSize, false)
	}
	r.syncAccess(t, r.a.Base+4<<20, false)
	st := r.d.Stats()
	if st.EvictedPages != memunits.PagesPerBlock {
		t.Fatalf("evicted %d pages, want one 64KB block", st.EvictedPages)
	}
}

func TestQuiescenceAndValidation(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
	}, 12<<20)
	for i := uint64(0); i < 3*memunits.BlocksPerChunk; i++ {
		r.syncAccess(t, r.a.Base+i*memunits.BlockSize, false)
	}
	if r.d.PendingWork() {
		t.Fatal("driver reports pending work after quiescence")
	}
	r.d.Finalize()
	if err := r.d.Stats().Validate(); err != nil {
		t.Fatalf("stats invariants violated: %v", err)
	}
	if r.d.mem.AllocatedPages() > r.d.mem.TotalPages() {
		t.Fatal("resident pages exceed capacity")
	}
}

func TestObserverSeesAllKinds(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAlways)
		c.StaticThreshold = 3
	}, 4<<20)
	kinds := map[AccessKind]int{}
	r.d.SetObserver(func(_ sim.Cycle, _ memunits.Addr, _ bool, k AccessKind) { kinds[k]++ })
	r.syncAccess(t, r.a.Base, false) // remote
	r.syncAccess(t, r.a.Base, false) // remote
	r.syncAccess(t, r.a.Base, false) // crosses ts: fault
	r.syncAccess(t, r.a.Base, false) // near
	if kinds[AccessRemote] != 2 || kinds[AccessFault] != 1 || kinds[AccessNear] != 1 {
		t.Fatalf("observer kinds = %v", kinds)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessNear.String() != "near" || AccessRemote.String() != "remote" || AccessFault.String() != "fault" {
		t.Error("access kind names wrong")
	}
}

func TestRemoteAccessSlowerThanNear(t *testing.T) {
	rRemote := newRig(t, func(c *config.Config) {
		*c = c.WithPolicy(config.PolicyAlways)
		c.StaticThreshold = 1 << 20
	}, 4<<20)
	t0 := rRemote.eng.Now()
	remoteDone := rRemote.syncAccess(t, rRemote.a.Base, false) - t0

	rNear := newRig(t, nil, 4<<20)
	rNear.syncAccess(t, rNear.a.Base, false) // migrate
	start := rNear.eng.Now()
	at, _ := rNear.d.TryFastAccess(rNear.a.Base, false)
	nearLat := at - start
	if remoteDone <= nearLat {
		t.Fatalf("remote access (%d) not slower than near (%d)", remoteDone, nearLat)
	}
}

func TestCountersTrackRoundTrips(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.DeviceMemBytes = 4 << 20
	}, 12<<20)
	touchChunk := func(chunk uint64) {
		for b := uint64(0); b < memunits.BlocksPerChunk; b++ {
			r.syncAccess(t, r.a.Base+chunk*(2<<20)+b*memunits.BlockSize, false)
		}
	}
	touchChunk(0)
	touchChunk(1)
	touchChunk(2) // evicts chunk 0
	firstBlock := memunits.BlockOf(r.a.Base)
	if r.d.ctrs.RoundTrips(firstBlock) != 1 {
		t.Fatalf("round trips = %d, want 1", r.d.ctrs.RoundTrips(firstBlock))
	}
}

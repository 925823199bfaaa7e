// Package uvm implements the Unified Memory driver model: GMMU residency
// tracking, replayable far-fault batching with the 45us handling latency,
// migration over the PCIe link with tree-based prefetching, capacity
// management with LRU/LFU eviction at 2MB or 64KB granularity, remote
// zero-copy access, and the delayed-migration threshold schemes of the
// paper (including the Adaptive dynamic threshold, Equation 1).
//
// The driver is the meeting point of every substrate package: it consumes
// memory transactions from the GPU model and turns them into near
// accesses, remote accesses, or far-faults with migrations and evictions.
//
// Every policy decision is delegated to a staged pipeline of narrow
// interfaces (internal/mm): the MigrationPlanner decides migrate versus
// remote, the FaultBatcher forms fault batches, the PrefetchGovernor
// groups neighbour blocks into migrations, and the EvictionEngine picks
// victims under capacity pressure from the candidates the driver lists
// as its mm.EvictionHost (evictionhost.go): chunks or blocks, by the
// configured eviction granularity. The Driver itself owns only
// page-table state (block/chunk slots, the GMMU TLB, access counters)
// and event sequencing (batch close, migration dispatch and landing,
// the capacity-wait queue). New resolves the stages named by
// config.PipelineSpec through mm.Build; NewWithPipeline takes a complete
// pipeline, which is how tests and the benchmark wrap or replace one
// stage without touching this file.
//
// The per-block and per-chunk state lives in dense slices indexed by
// block/chunk number rather than maps: the managed address space starts
// at the first chunk boundary and stays small and contiguous, so direct
// indexing makes the dominant near-access path a couple of array loads,
// and index order is the eviction paths' deterministic order, with no
// sorting.
package uvm

import (
	"fmt"
	"math/bits"
	"sync"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/counters"
	"uvmsim/internal/devmem"
	"uvmsim/internal/evict"
	"uvmsim/internal/interconnect"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/policy"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// AccessKind classifies how an access was served, for trace observers.
type AccessKind int

const (
	// AccessNear was served from resident device memory.
	AccessNear AccessKind = iota
	// AccessRemote was served by zero-copy access to host memory.
	AccessRemote
	// AccessFault raised (or joined) a far-fault and waited for
	// migration.
	AccessFault
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessNear:
		return "near"
	case AccessRemote:
		return "remote"
	case AccessFault:
		return "fault"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// AccessObserver receives every memory transaction the driver serves.
// Trace collection (Figs. 2 and 3) hangs off this hook.
type AccessObserver func(now sim.Cycle, addr memunits.Addr, write bool, kind AccessKind)

// phase is a 64KB block's place in its lifecycle (DESIGN §10). A block
// leaves the host when its fault is raised (faulted) or when a batch's
// prefetch claims it (queued); it goes on the wire (inFlight) and lands
// (resident), or is demoted from queued back to host when no capacity
// will ever free; eviction returns a resident block to the host. move
// is the only code that changes a block's phase.
type phase uint8

const (
	onHost phase = iota
	faulted
	queued
	inFlight
	resident
	numPhases
)

var phaseNames = [numPhases]string{"onHost", "faulted", "queued", "inFlight", "resident"}

func (p phase) String() string { return phaseNames[p] }

// edges[from] has bit to set iff from→to is a lifecycle edge.
var edges = [numPhases]uint8{
	onHost:   1<<faulted | 1<<queued,
	faulted:  1 << queued,
	queued:   1<<inFlight | 1<<onHost,
	inFlight: 1 << resident,
	resident: 1 << onHost,
}

// blockState tracks one 64KB basic block. The zero value means "never
// touched": on host, clean, no waiters, which is what lets block state
// live in a plain value slice.
type blockState struct {
	phase phase
	// dirty means written since the block left the host: writes merged
	// while it was pending carry over when it lands, and each edge back
	// to host clears it.
	dirty       bool
	everEvicted bool
	lastAccess  sim.Cycle
	// waiters are the accesses merged onto a faulted, queued or
	// in-flight block, woken when it lands.
	waiters []func()
}

// chunkState tracks one 2MB chunk slot of a managed allocation.
type chunkState struct {
	info alloc.ChunkInfo
	pf   mm.ChunkPrefetcher
	// blocks[p] counts the chunk's blocks in phase p >= queued; move
	// keeps it. Queued and in-flight blocks pin the chunk against
	// standard eviction. A chunk is materialized when its first fault
	// batch closes, so on-host and faulted blocks are not counted.
	blocks     [numPhases]int32
	lastAccess sim.Cycle
}

func (cs *chunkState) pinnedStandard() bool { return cs.blocks[queued] > 0 || cs.blocks[inFlight] > 0 }

// move takes the block to phase to, keeping its chunk's counts and
// evictable bit; cs may be nil only on the host→faulted edge. It panics
// on any edge outside the lifecycle.
func (d *Driver) move(cs *chunkState, bs *blockState, to phase) {
	from := bs.phase
	if edges[from]&(1<<to) == 0 {
		panic(fmt.Sprintf("uvm: block cannot move from %v to %v", from, to))
	}
	bs.phase = to
	if from >= queued {
		cs.blocks[from]--
	}
	if to >= queued {
		cs.blocks[to]++
	}
	if max(from, to) >= inFlight {
		d.syncEvictable(cs)
	}
}

// migration is one queued host-to-device copy of a block set within a
// single chunk. Once dispatched, a pooled copy of it is the engine event
// that lands the DMA (see Fire).
type migration struct {
	// d is set only on the pooled in-flight copy.
	d  *Driver
	cs *chunkState
	// blocks is the chunk-relative block bitmask: bit i is block
	// cs.info.FirstBlock()+i. Walking it low bit first visits blocks in
	// ascending order.
	blocks uint64
	demand memunits.BlockNum // the faulting block; others are prefetch
	// dispatchedAt stamps when the DMA went on the wire (observability
	// only).
	dispatchedAt sim.Cycle
}

// count returns the number of blocks in the migration.
func (m *migration) count() int { return bits.OnesCount64(m.blocks) }

// Driver is the UVM driver model: page-table state, event sequencing,
// and the composed memory-management pipeline.
type Driver struct {
	eng   *sim.Engine
	cfg   config.Config
	space *alloc.Space
	mem   *devmem.Memory
	link  *interconnect.Link
	ctrs  *counters.File
	st    stats.Counters

	// The memory-management pipeline stages (see internal/mm). Each is
	// owned exclusively by this driver.
	batcher mm.FaultBatcher
	planner mm.MigrationPlanner
	evictor mm.EvictionEngine
	pfgov   mm.PrefetchGovernor

	// blockArr is indexed by global block number; entries are values, so
	// a *blockState from block/blockAt must never be held across another
	// block() call — growth moves the array. chunkArr holds pointers
	// (chunkState outlives events via queued migrations) and is indexed
	// by chunk number; nil means not yet materialized.
	blockArr []blockState
	chunkArr []*chunkState
	// evictable is a bitset over chunk numbers, grown with chunkArr: bit
	// c is set iff chunk c has resident blocks and none on the wire —
	// exactly the chunks the relaxed eviction pass may choose from. It
	// lets victim collection skip pinned chunks with word scans instead
	// of walking chunkArr (see evictionhost.go).
	evictable []uint64

	processBatchFn sim.Event

	// waiting is the FIFO of migrations blocked on device capacity,
	// drained in place through waitHead and compacted between drains.
	waiting  []migration
	waitHead int
	drainFn  func()

	// inFlightTotal counts blocks on the wire across all chunks;
	// wbInFlight counts outstanding dirty write-back transfers. Together
	// they tell drainWaiting whether a stalled migration will ever be
	// retried by a completion event — when both are zero and eviction
	// refuses, the head migration is demoted to remote access instead
	// of hanging the run.
	inFlightTotal int
	wbInFlight    int

	// Free lists recycling the per-migration allocations of the fault
	// path: waiter lists (blockState.waiters) and the in-flight
	// migration records that land DMAs.
	waiterFree [][]func()
	migFree    []*migration
	// wakeFree recycles the batched-wake records of landMigration (one
	// engine event per block instead of one per waiter).
	wakeFree []*wake

	// candScratch is the eviction candidate list, reused across victim
	// selections; dest is the chunk being migrated into during an
	// evictOne call, which no candidate pass lists (see
	// evictionhost.go).
	candScratch []evict.Candidate
	dest        *chunkState

	// advice holds per-allocation placement hints (see advise.go),
	// keyed by allocation ID.
	advice map[int]Advice

	faultLatency sim.Cycle
	gmmuTLB      *tlb
	obs          AccessObserver
	// o holds the observability hooks (see obs.go); nil when disabled.
	o         *driverObs
	finalized bool
}

// New creates a driver for the given configuration and address space:
// mm.Build resolves cfg.MMPipeline (an empty spec is the built-in
// stages), then NewWithPipeline composes the driver.
func New(eng *sim.Engine, cfg config.Config, space *alloc.Space) *Driver {
	pipe, err := mm.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("uvm: %v", err))
	}
	return NewWithPipeline(eng, cfg, space, pipe)
}

// NewWithPipeline creates a driver composed of the given pipeline
// stages, every one of which must be set: start from mm.Build(cfg) to
// replace a single stage. The stages become owned by this driver:
// stateful stages (FaultBatcher) must not be shared with another
// driver.
func NewWithPipeline(eng *sim.Engine, cfg config.Config, space *alloc.Space, pipe mm.Pipeline) *Driver {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("uvm: %v", err))
	}
	switch {
	case pipe.Batcher == nil:
		panic("uvm: pipeline has no Batcher stage")
	case pipe.Planner == nil:
		panic("uvm: pipeline has no Planner stage")
	case pipe.Evictor == nil:
		panic("uvm: pipeline has no Evictor stage")
	case pipe.Prefetch == nil:
		panic("uvm: pipeline has no Prefetch stage")
	}
	d := &Driver{
		eng:          eng,
		cfg:          cfg,
		space:        space,
		mem:          devmem.New(cfg.DeviceMemBytes),
		link:         interconnect.New(eng, cfg.PCIeBytesPerCycle, cfg.PCIeLatency, cfg.PCIeHeaderBytes, cfg.RemoteWirePenalty),
		batcher:      pipe.Batcher,
		planner:      pipe.Planner,
		evictor:      pipe.Evictor,
		pfgov:        pipe.Prefetch,
		ctrs:         counters.New(),
		faultLatency: cfg.FarFaultLatencyCycles(),
		gmmuTLB:      newTLB(cfg.TLBEntries),
	}
	d.adopt()
	d.processBatchFn = d.processBatch
	d.drainFn = func() {
		d.wbInFlight--
		d.drainWaiting()
	}
	return d
}

// translate performs the GMMU TLB lookup for the page containing addr
// and returns the page-walk latency to charge (zero on a hit).
func (d *Driver) translate(addr memunits.Addr) sim.Cycle {
	if d.gmmuTLB.lookup(memunits.PageOf(addr)) {
		d.st.TLBHits++
		return 0
	}
	d.st.TLBMisses++
	return sim.Cycle(d.cfg.PageWalkLatency)
}

// SetObserver installs the access observer (nil to disable).
func (d *Driver) SetObserver(obs AccessObserver) { d.obs = obs }

// Stats returns the driver's counters. Call Finalize first to fold in
// the interconnect byte totals.
func (d *Driver) Stats() *stats.Counters { return &d.st }

// Link exposes the interconnect model.
func (d *Driver) Link() *interconnect.Link { return d.link }

// Finalize folds interconnect statistics into the counters. Idempotent.
func (d *Driver) Finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	d.st.H2DBytes = d.link.Stats(interconnect.HostToDevice).Bytes
	d.st.D2HBytes = d.link.Stats(interconnect.DeviceToHost).Bytes
}

// PendingWork reports whether a fault batch is open or any migrations
// are queued (the blocks of waiting) or in flight — used by integration
// tests to assert clean quiescence.
func (d *Driver) PendingWork() bool {
	return len(d.waiting) > d.waitHead || d.batcher.Open() || d.inFlightTotal > 0
}

// block returns the state slot for b, growing the array to cover it.
// The pointer is only valid until the next block() call. Entries past
// the length are zero (never touched), so growth within the capacity
// of a recycled array only reslices.
func (d *Driver) block(b memunits.BlockNum) *blockState {
	if b >= memunits.BlockNum(len(d.blockArr)) {
		n := max(uint64(b)+1, uint64(2*len(d.blockArr)))
		if n <= uint64(cap(d.blockArr)) {
			d.blockArr = d.blockArr[:n]
		} else {
			grown := make([]blockState, n)
			copy(grown, d.blockArr)
			d.blockArr = grown
		}
	}
	return &d.blockArr[b]
}

// blockAt returns the state slot for b without growing, or nil when the
// array does not cover it (equivalent to a never-touched block).
func (d *Driver) blockAt(b memunits.BlockNum) *blockState {
	if b < memunits.BlockNum(len(d.blockArr)) {
		return &d.blockArr[b]
	}
	return nil
}

// chunk returns the chunk state, materializing it on first touch.
func (d *Driver) chunk(c memunits.ChunkNum) *chunkState {
	if cs := d.chunkAt(c); cs != nil {
		return cs
	}
	_, info, ok := d.space.FindChunk(c)
	if !ok {
		panic(fmt.Sprintf("uvm: access to unallocated chunk %d", c))
	}
	cs := &chunkState{info: info, pf: d.pfgov.NewChunk(int(info.Blocks()))}
	if c >= memunits.ChunkNum(len(d.chunkArr)) {
		n := uint64(c) + 1
		if m := uint64(2 * len(d.chunkArr)); m > n {
			n = m
		}
		grown := make([]*chunkState, n)
		copy(grown, d.chunkArr)
		d.chunkArr = grown
		words := make([]uint64, (n+63)/64)
		copy(words, d.evictable)
		d.evictable = words
	}
	d.chunkArr[c] = cs
	return cs
}

// syncEvictable recomputes the chunk's bit in the evictable index (see
// move).
func (d *Driver) syncEvictable(cs *chunkState) {
	c := cs.info.Num
	bit := uint64(1) << (c % 64)
	if cs.blocks[resident] > 0 && cs.blocks[inFlight] == 0 {
		d.evictable[c/64] |= bit
	} else {
		d.evictable[c/64] &^= bit
	}
}

// isEvictable reports the chunk's bit in the evictable index.
func (d *Driver) isEvictable(c memunits.ChunkNum) bool {
	return d.evictable[c/64]&(uint64(1)<<(c%64)) != 0
}

// chunkAt returns the chunk state or nil when not materialized.
func (d *Driver) chunkAt(c memunits.ChunkNum) *chunkState {
	if c < memunits.ChunkNum(len(d.chunkArr)) {
		return d.chunkArr[c]
	}
	return nil
}

// takeWaiterList pops a recycled waiter list.
func (d *Driver) takeWaiterList() []func() {
	if k := len(d.waiterFree); k > 0 {
		l := d.waiterFree[k-1]
		d.waiterFree = d.waiterFree[:k-1]
		return l
	}
	return make([]func(), 0, 4)
}

func (d *Driver) putWaiterList(l []func()) {
	if cap(l) == 0 {
		return
	}
	for i := range l {
		l[i] = nil // drop closure references before recycling
	}
	d.waiterFree = append(d.waiterFree, l[:0])
}

// driverStore is a finished driver's private fault-path storage.
type driverStore struct {
	blockArr   []blockState
	waiting    []migration
	waiterFree [][]func()
	migFree    []*migration
	wakeFree   []*wake
}

// driverPool carries fault-path storage from finished drivers to new
// ones, as gpu.Recycle does for warps: a cell's waiter lists, wake and
// migration records, capacity-wait queue and block array start at the
// capacities an earlier cell grew. The counter file is not pooled:
// Counters and the observability providers read it after the run.
var driverPool sync.Pool

// Recycle hands the driver's fault-path storage to later drivers,
// cleared: no block state, waiter or record carries over. Call it once
// the run has quiesced (PendingWork is false); the driver's block
// state is gone afterwards, so it must serve no further access.
func (d *Driver) Recycle() {
	clear(d.blockArr)
	for _, m := range d.migFree {
		*m = migration{}
	}
	for _, k := range d.wakeFree {
		k.d = nil // let this driver be collected while its records wait
	}
	driverPool.Put(&driverStore{
		blockArr:   d.blockArr[:0],
		waiting:    d.waiting[:0],
		waiterFree: d.waiterFree,
		migFree:    d.migFree,
		wakeFree:   d.wakeFree,
	})
	d.blockArr, d.waiting, d.waiterFree, d.migFree, d.wakeFree = nil, nil, nil, nil, nil
}

// adopt takes a finished driver's storage from the pool, re-pointing
// its wake records at d (a migration record is re-pointed when it is
// dispatched).
func (d *Driver) adopt() {
	st, ok := driverPool.Get().(*driverStore)
	if !ok {
		return
	}
	d.blockArr, d.waiting = st.blockArr, st.waiting
	d.waiterFree, d.migFree, d.wakeFree = st.waiterFree, st.migFree, st.wakeFree
	for _, k := range d.wakeFree {
		k.d = d
	}
}

func (d *Driver) memState() policy.MemState {
	return policy.MemState{
		AllocatedPages: d.mem.AllocatedPages(),
		TotalPages:     d.mem.TotalPages(),
		Oversubscribed: d.mem.Oversubscribed(),
	}
}

// TryFastAccess serves the access synchronously when the block is
// resident in device memory, returning the completion cycle. ok is false
// when the slow path (Access) must be used instead. The fast path exists
// so that the dominant near-access case costs no event-queue traffic.
//
//sim:hotpath
func (d *Driver) TryFastAccess(addr memunits.Addr, write bool) (sim.Cycle, bool) {
	b := memunits.BlockOf(addr)
	bs := d.blockAt(b)
	if bs == nil || bs.phase != resident {
		return 0, false
	}
	walk := d.translate(addr)
	d.ctrs.Access(uint64(b))
	now := d.eng.Now()
	bs.lastAccess = now
	if write {
		bs.dirty = true
	}
	if cs := d.chunkAt(memunits.ChunkOf(addr)); cs != nil {
		cs.lastAccess = now
	}
	d.st.NearAccesses++
	if d.obs != nil {
		d.obs(now, addr, write, AccessNear)
	}
	return now + walk + sim.Cycle(d.cfg.DRAMLatency), true
}

// TryFastAccessRun serves a run of sector accesses that all fall in the
// same 64KB block, returning the latest completion cycle. It is exactly
// equivalent to calling TryFastAccess on each address in order — the
// TLB is still walked per sector, in sequence, because sectors of one
// block can span pages and translation order is architectural state —
// but the residency check, counter bumps, recency stamps and stats are
// batched into one pass. ok is false when the block is not resident and
// the caller must fall back to per-sector processing.
//
//sim:hotpath
func (d *Driver) TryFastAccessRun(addrs []memunits.Addr, write bool) (sim.Cycle, bool) {
	b := memunits.BlockOf(addrs[0])
	bs := d.blockAt(b)
	if bs == nil || bs.phase != resident {
		return 0, false
	}
	// Sectors arrive sorted, so same-page sectors are consecutive. After
	// the first lookup of a page the entry sits at the LRU front and every
	// further lookup is a guaranteed hit that touch() no-ops, so one
	// translate per page plus a hit-counter bump is exactly equivalent to
	// walking the TLB per sector.
	var maxWalk sim.Cycle
	for i := 0; i < len(addrs); {
		p := memunits.PageOf(addrs[i])
		j := i + 1
		for j < len(addrs) && memunits.PageOf(addrs[j]) == p {
			j++
		}
		if w := d.translate(addrs[i]); w > maxWalk {
			maxWalk = w
		}
		d.st.TLBHits += uint64(j - i - 1)
		i = j
	}
	d.ctrs.AccessRun(uint64(b), uint64(len(addrs)))
	now := d.eng.Now()
	bs.lastAccess = now
	if write {
		bs.dirty = true
	}
	if cs := d.chunkAt(memunits.ChunkOf(addrs[0])); cs != nil {
		cs.lastAccess = now
	}
	d.st.NearAccesses += uint64(len(addrs))
	if d.obs != nil {
		for _, a := range addrs {
			d.obs(now, a, write, AccessNear)
		}
	}
	return now + maxWalk + sim.Cycle(d.cfg.DRAMLatency), true
}

// Access serves one 128B-sector transaction asynchronously; done fires
// when the data is available to the SM. Residency, the migration
// planner and fault batching decide whether this becomes a near access,
// a remote zero-copy access, or a far-fault.
func (d *Driver) Access(addr memunits.Addr, write bool, done func()) {
	if done == nil {
		panic("uvm: nil completion callback")
	}
	owner := d.space.Find(addr)
	if owner == nil {
		panic(fmt.Sprintf("uvm: access to unmapped address %#x", addr))
	}
	if at, ok := d.TryFastAccess(addr, write); ok {
		d.eng.At(at, done)
		return
	}
	b := memunits.BlockOf(addr)
	bs := d.block(b)
	now := d.eng.Now()
	bs.lastAccess = now
	// The translation attempt happens (and is counted) regardless of how
	// the access is ultimately served; only the remote path charges the
	// walk latency explicitly — the far-fault handling latency subsumes
	// it on the fault path.
	walk := d.translate(addr)

	if bs.phase != onHost {
		// Migration already underway: merge.
		d.ctrs.Access(uint64(b))
		if write {
			bs.dirty = true
		}
		if bs.waiters == nil {
			bs.waiters = d.takeWaiterList()
		}
		bs.waiters = append(bs.waiters, done)
		if d.obs != nil {
			d.obs(now, addr, write, AccessFault)
		}
		return
	}

	count := d.ctrs.Access(uint64(b))
	var migrate bool
	switch d.adviceFor(owner) {
	case AdvicePinHost:
		// Hard-pinned zero-copy allocation: never migrated.
		migrate = false
	case AdvicePreferHost:
		// Soft pin: Volta semantics regardless of the global policy.
		migrate = write || count >= d.cfg.StaticThreshold
	default:
		migrate = d.planner.ShouldMigrate(mm.Access{
			Block:      b,
			Write:      write,
			Count:      count,
			RoundTrips: d.ctrs.RoundTrips(uint64(b)),
			Mem:        d.memState(),
		})
	}
	if !migrate {
		d.remoteAccess(addr, write, walk, done)
		return
	}
	d.raiseFault(b, write, done)
	if d.obs != nil {
		d.obs(now, addr, write, AccessFault)
	}
}

// remoteAccess serves the transaction from host-pinned memory over the
// interconnect. Read data flows host-to-device; write data flows
// device-to-host. The configured remote-access latency is added on top
// of the link's occupancy and initiation latency.
func (d *Driver) remoteAccess(addr memunits.Addr, write bool, walk sim.Cycle, done func()) {
	dir := interconnect.HostToDevice
	if write {
		dir = interconnect.DeviceToHost
		d.st.RemoteWrites++
	} else {
		d.st.RemoteReads++
	}
	if d.obs != nil {
		d.obs(d.eng.Now(), addr, write, AccessRemote)
	}
	finish := d.link.RemoteAccess(dir, memunits.SectorSize, nil)
	d.eng.At(finish+walk+sim.Cycle(d.cfg.RemoteAccessLatency), done)
}

// raiseFault registers a far-fault for block b and adds it to the fault
// batcher, scheduling a processing round when this fault opened a new
// batch. The batch is processed after the fault handling latency,
// modelling the driver walking the fault buffer.
func (d *Driver) raiseFault(b memunits.BlockNum, write bool, done func()) {
	bs := d.block(b)
	d.move(nil, bs, faulted) // the chunk materializes when the batch closes
	if write {
		bs.dirty = true
	}
	if bs.waiters == nil {
		bs.waiters = d.takeWaiterList()
	}
	bs.waiters = append(bs.waiters, done)
	d.st.FarFaults++
	if d.batcher.Add(b) {
		d.st.FaultBatches++
		if d.o != nil {
			d.o.batchOpenedAt = d.eng.Now()
		}
		d.eng.After(d.faultLatency, d.processBatchFn)
	}
}

// processBatch closes the fault batch and runs the prefetch governor
// over every fault accumulated in it, queueing one migration per
// faulting chunk neighbourhood.
func (d *Driver) processBatch() {
	batch := d.batcher.Close()
	if o := d.o; o != nil {
		o.batchSize.Observe(uint64(len(batch)))
		o.tr.Emit(obs.Span{
			Name: "fault_batch", Cat: "fault", TID: obs.TrackFault,
			Start: uint64(o.batchOpenedAt),
			Dur:   uint64(d.eng.Now() - o.batchOpenedAt),
			Value: uint64(len(batch)),
		})
	}
	for _, b := range batch {
		if d.block(b).phase >= queued {
			// Swept in by an earlier entry's prefetch.
			continue
		}
		cs := d.chunk(memunits.ChunkOfBlock(b))
		first := cs.info.FirstBlock()
		m := migration{cs: cs, demand: b}
		for _, leaf := range cs.pf.OnFault(int(b - first)) {
			ebs := d.block(first + memunits.BlockNum(uint64(leaf)))
			if ebs.phase >= queued {
				// The governor can re-report blocks that are already being
				// handled; skip them.
				continue
			}
			d.move(cs, ebs, queued)
			m.blocks |= 1 << uint(leaf)
		}
		n := m.count()
		if n == 0 {
			continue
		}
		if o := d.o; o != nil && n > 1 {
			o.prefetchBlocks.Observe(uint64(n - 1))
			o.tr.Emit(obs.Span{
				Name: "prefetch_batch", Cat: "prefetch", TID: obs.TrackPrefetch,
				Start: uint64(d.eng.Now()), Value: uint64(n - 1),
			})
		}
		d.waiting = append(d.waiting, m)
	}
	d.drainWaiting()
}

// drainWaiting dispatches queued migrations in FIFO order, evicting as
// needed. When the head migration cannot obtain capacity even after
// eviction it is retried on the next completion event — or, when no
// completion event is outstanding (the eviction engine refused with
// nothing in flight), demoted to remote access so the run degrades
// instead of hanging.
func (d *Driver) drainWaiting() {
	for d.waitHead < len(d.waiting) {
		m := d.waiting[d.waitHead]
		need := uint64(m.count()) * memunits.PagesPerBlock
		if need > d.mem.TotalPages() {
			panic(fmt.Sprintf("uvm: migration of %d pages exceeds device capacity %d", need, d.mem.TotalPages()))
		}
		stuck := false
		for !d.mem.CanAllocate(need) {
			if !d.evictOne(m.cs) {
				stuck = true
				break
			}
		}
		if stuck {
			if d.inFlightTotal > 0 || d.wbInFlight > 0 {
				break // retried when the in-flight work completes
			}
			// Nothing in flight will ever retry this migration: demote
			// it to remote access and keep draining.
			d.waiting[d.waitHead] = migration{}
			d.waitHead++
			d.demoteMigration(m)
			continue
		}
		d.waiting[d.waitHead] = migration{}
		d.waitHead++
		d.dispatch(m)
	}
	// Compact so appends reuse the backing array and PendingWork can
	// test len alone.
	if d.waitHead > 0 {
		n := copy(d.waiting, d.waiting[d.waitHead:])
		for i := n; i < len(d.waiting); i++ {
			d.waiting[i] = migration{}
		}
		d.waiting = d.waiting[:n]
		d.waitHead = 0
	}
}

// dispatch allocates frames and puts the migration on the wire. A
// pooled copy of m lands it at the DMA's completion cycle.
//
//sim:hotpath
func (d *Driver) dispatch(m migration) {
	n := m.count()
	d.mem.Allocate(uint64(n) * memunits.PagesPerBlock)
	o := d.o
	first := m.cs.info.FirstBlock()
	for w := m.blocks; w != 0; w &= w - 1 {
		b := first + memunits.BlockNum(bits.TrailingZeros64(w))
		bs := d.block(b)
		d.move(m.cs, bs, inFlight)
		d.st.MigratedPages += memunits.PagesPerBlock
		if b != m.demand {
			d.st.PrefetchedPages += memunits.PagesPerBlock
		}
		if bs.everEvicted {
			d.st.ThrashedPages += memunits.PagesPerBlock
			if o != nil {
				o.thrashEvents.Inc()
			}
		}
	}
	d.inFlightTotal += n
	if o != nil {
		o.dmaBlocks.Observe(uint64(n))
	}
	m.dispatchedAt = d.eng.Now()
	at := d.link.Transfer(interconnect.HostToDevice, uint64(n)*memunits.BlockSize, nil)
	var rec *migration
	if k := len(d.migFree); k > 0 {
		rec = d.migFree[k-1]
		d.migFree = d.migFree[:k-1]
	} else {
		//simlint:allow hotalloc -- pool-miss path; each record is recycled via migFree, so allocations stop once the pool covers peak in-flight migrations
		rec = new(migration)
	}
	*rec = m
	rec.d = d
	d.eng.Schedule(at, rec)
}

// Fire lands an in-flight migration: the record returns to the pool and
// its copy lands.
//
//sim:hotpath
func (m *migration) Fire() {
	d, land := m.d, *m
	d.migFree = append(d.migFree, m)
	d.landMigration(land)
}

// wake is a pooled batched-wake record: one engine event that fires a
// whole waiter list in its original append order. The per-waiter events
// it replaces were scheduled back-to-back (consecutive seqs at one
// cycle, nothing interleaved), so firing the callbacks consecutively
// from one event preserves the exact same execution order.
type wake struct {
	d  *Driver
	ws []func()
	fn sim.Event
}

//sim:hotpath
func (k *wake) fire() {
	d, ws := k.d, k.ws
	k.ws = nil
	d.wakeFree = append(d.wakeFree, k)
	for _, w := range ws {
		w()
	}
	d.putWaiterList(ws)
}

// wakeAll schedules one event that runs every waiter after the DRAM
// access latency, recycling the list once fired.
//
//sim:hotpath
func (d *Driver) wakeAll(ws []func()) {
	var k *wake
	if n := len(d.wakeFree); n > 0 {
		k = d.wakeFree[n-1]
		d.wakeFree = d.wakeFree[:n-1]
	} else {
		//simlint:allow hotalloc -- pool-miss path; each wake object is recycled via wakeFree, so allocations stop once the pool covers peak concurrency
		k = &wake{d: d}
		k.fn = k.fire
	}
	k.ws = ws
	d.eng.After(sim.Cycle(d.cfg.DRAMLatency), k.fn)
}

// landMigration marks the blocks resident and wakes their waiters.
func (d *Driver) landMigration(m migration) {
	now := d.eng.Now()
	n := m.count()
	first := m.cs.info.FirstBlock()
	for w := m.blocks; w != 0; w &= w - 1 {
		bs := d.block(first + memunits.BlockNum(bits.TrailingZeros64(w)))
		d.move(m.cs, bs, resident)
		bs.lastAccess = now
		waiters := bs.waiters
		bs.waiters = nil
		if len(waiters) > 0 {
			d.st.NearAccesses += uint64(len(waiters))
			d.wakeAll(waiters)
		} else {
			d.putWaiterList(waiters)
		}
	}
	d.inFlightTotal -= n
	m.cs.lastAccess = now
	if o := d.o; o != nil {
		o.tr.Emit(obs.Span{
			Name: "migrate_dma", Cat: "dma", TID: obs.TrackDMA,
			Start: uint64(m.dispatchedAt), Dur: uint64(now - m.dispatchedAt),
			Value: uint64(n),
		})
	}
	d.drainWaiting()
}

// demoteMigration takes a migration that can never obtain device
// capacity (the eviction engine refused with no completion event
// outstanding) along the queued→host edge and re-serves its merged
// accesses as remote zero-copy transactions. The merge does not retain
// per-waiter direction, so a dirty block re-serves all of its waiters as
// remote writes and leaves dirty cleared; clean blocks re-serve as
// remote reads.
//
// The LRU and LFU engines never reach this path — their relaxed
// selection pass only refuses when blocks are on the wire, and
// on-the-wire blocks schedule the retry. It exists so that a refusing
// or overly conservative EvictionEngine (`-evictor none` refuses every
// eviction) degrades to remote access instead of deadlocking the
// simulation.
func (d *Driver) demoteMigration(m migration) {
	first := m.cs.info.FirstBlock()
	tree := m.cs.pf.Tree()
	for w := m.blocks; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		b := first + memunits.BlockNum(i)
		bs := d.block(b)
		d.move(m.cs, bs, onHost)
		write := bs.dirty
		bs.dirty = false
		tree.MarkEmpty(i)
		waiters := bs.waiters
		bs.waiters = nil
		addr := memunits.BlockAddr(b)
		for _, w := range waiters {
			d.remoteAccess(addr, write, 0, w)
		}
		d.putWaiterList(waiters)
	}
}

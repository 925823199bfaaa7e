// Package gpu models the GPU's compute side: streaming multiprocessors
// with bounded CTA/warp residency, warp issue with latency hiding, and a
// 32-lane coalescer that merges a warp memory instruction into unique
// 128B sector transactions.
//
// The model is deliberately coarse where the paper's results do not
// depend on detail — there is no SASS pipeline — but it preserves the two
// properties every figure rests on: massive thread-level parallelism
// hides near-access latency, and it cannot hide far-fault latency, which
// stalls warps for tens of thousands of cycles.
package gpu

import (
	"fmt"
	"math/bits"
	"sync"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// MaxLanes is the number of threads (lanes) per warp.
const MaxLanes = 32

// Instr is one warp instruction. A zero NumAddrs means pure compute.
//
// A memory instruction comes in two forms. With Stride zero (the zero
// value, so programs that never set it get this form) it is a gather:
// Addrs[:NumAddrs] holds the per-lane byte addresses. With Stride
// nonzero it is a dense lane range: lane i's address is
// Addrs[0] + i*Stride and Addrs[1:] are not read. The GPU keeps one
// Instr per warp across Next calls, so a program that emits both forms
// must set Stride on every instruction. Addrs, though, does not survive
// from one Next call to the next: the coalescer overwrites it with the
// instruction's sectors, so Next writes every lane address it emits.
// Read lane addresses with Addr.
type Instr struct {
	// Compute is the number of issue cycles of arithmetic preceding the
	// memory operation (or the whole instruction cost when NumAddrs is
	// zero). Workload generators aggregate arithmetic here.
	Compute uint64
	// Write marks the memory operation as a store.
	Write bool
	// Stride is the byte distance between consecutive lanes of a dense
	// instruction, or zero for per-lane addresses. It sits in the
	// padding after Write, so Instr stays 280 bytes.
	Stride uint32
	// NumAddrs is the number of active lanes.
	NumAddrs int
	Addrs    [MaxLanes]memunits.Addr
}

// Addr returns lane i's byte address under either form.
func (in *Instr) Addr(i int) memunits.Addr {
	if in.Stride != 0 {
		return in.Addrs[0] + memunits.Addr(i)*memunits.Addr(in.Stride)
	}
	return in.Addrs[i]
}

// WarpProgram generates the instruction stream of one warp. Next fills
// in instr and reports whether an instruction was produced; false means
// the warp has retired.
type WarpProgram interface {
	Next(instr *Instr) bool
}

// Releaser is an optional WarpProgram extension: the GPU calls Release
// once when the warp running the program retires, after the program's
// last Next. A program that implements it may recycle itself there, so a
// kernel allocates programs for its peak resident warps rather than for
// every warp it runs. Programs without it are left to the collector.
type Releaser interface {
	Release()
}

// Kernel describes one kernel launch.
type Kernel struct {
	Name        string
	CTAs        int
	WarpsPerCTA int
	// NewWarp builds the program for warp w (0-based within the CTA) of
	// CTA cta.
	NewWarp func(cta, w int) WarpProgram
}

// Validate checks the kernel description.
func (k Kernel) Validate() error {
	if k.CTAs <= 0 {
		return fmt.Errorf("gpu: kernel %q has %d CTAs", k.Name, k.CTAs)
	}
	if k.WarpsPerCTA <= 0 {
		return fmt.Errorf("gpu: kernel %q has %d warps per CTA", k.Name, k.WarpsPerCTA)
	}
	if k.NewWarp == nil {
		return fmt.Errorf("gpu: kernel %q has nil NewWarp", k.Name)
	}
	return nil
}

// MemoryBackend is the memory subsystem the GPU issues transactions to
// (the UVM driver in full simulations; a stub in unit tests).
type MemoryBackend interface {
	// TryFastAccess serves the access synchronously when possible,
	// returning the completion cycle.
	TryFastAccess(addr memunits.Addr, write bool) (sim.Cycle, bool)
	// Access serves the access asynchronously, invoking done at
	// completion.
	Access(addr memunits.Addr, write bool, done func())
}

// RunBackend is an optional MemoryBackend extension: a backend that can
// serve a dense run of same-block sector accesses in one call. The GPU
// detects it once at construction and uses it for multi-sector runs;
// backends without it (unit-test stubs) see per-sector calls only.
type RunBackend interface {
	// TryFastAccessRun serves sorted same-block sector addresses
	// synchronously when possible, returning the latest completion
	// cycle. ok false means the caller must fall back per sector.
	TryFastAccessRun(addrs []memunits.Addr, write bool) (sim.Cycle, bool)
}

// sm is one streaming multiprocessor's occupancy and issue state.
type sm struct {
	freeAt        sim.Cycle // issue resource: one instruction per cycle
	residentCTAs  int
	residentWarps int
}

// warp is the execution state of one resident warp. Warp objects are
// pooled across CTA dispatches, and across runs through warpPool. A
// warp is its own engine event: the named types warpStep, warpIssue and
// warpRetire over warp are sim.Handlers, so scheduling a warp allocates
// nothing and dispatch reaches it without a closure. Only the
// sector-completion callback, which MemoryBackend.Access takes as a
// func, is bound once at construction; it reads w.g, so it follows the
// warp to its next GPU.
//
// The per-instruction fields come first and fill cache line 0; instr
// follows, so a dense instruction (Compute, Stride, NumAddrs and its few
// sectors) touches lines 0 and 1 only. The warp stays in the 384-byte
// size class (TestWarpSizeClass).
type warp struct {
	g    *GPU
	prog WarpProgram
	sm   *sm
	// nsec is the coalesced sector count of the current memory
	// instruction; the sectors themselves replace its lanes in
	// instr.Addrs[:nsec].
	nsec int
	// outstanding async transactions for the current memory op.
	outstanding int
	// readyAt is the max completion cycle among fast-path sectors.
	readyAt sim.Cycle
	// issuedAt is the cycle the current memory op was issued, for warp
	// stall accounting (observability only).
	issuedAt sim.Cycle
	instr    Instr

	cta      *ctaState
	sectorFn func() // async sector completion
}

// The warp's engine events; a warp has at most one in flight at a time.
type (
	warpStep   warp // resume execution
	warpIssue  warp // issue the coalesced memory op
	warpRetire warp // retire after trailing compute
)

func (w *warpStep) Fire()   { w.g.step((*warp)(w)) }
func (w *warpIssue) Fire()  { w.g.issueMemory((*warp)(w)) }
func (w *warpRetire) Fire() { w.g.finishWarp((*warp)(w)) }

// ctaState tracks retirement of one CTA. Pooled like warps.
type ctaState struct {
	warpsLeft int
	sm        *sm
}

// GPU is the device compute model.
type GPU struct {
	eng *sim.Engine
	cfg config.Config
	mem MemoryBackend
	// memRun is mem's optional dense-run extension (nil when absent),
	// resolved once at construction to keep issueMemory assertion-free.
	memRun RunBackend
	st     *stats.Counters
	sms    []sm

	// current kernel launch state
	kernel       Kernel
	nextCTA      int
	retiredWarps int
	totalWarps   int
	onDone       func(finish sim.Cycle)
	running      bool

	// free lists recycling warp and CTA state (and the warps' sector
	// callbacks) across dispatches; Recycle hands the warps on to the
	// next GPU.
	warpFree []*warp
	ctaFree  []*ctaState

	// Observability (nil when disabled): total cycles warps spent blocked
	// on asynchronous memory (remote accesses and far-faults), plus the
	// per-memory-op stall distribution.
	stallCycles obs.Counter
	stallHist   *obs.Histogram
	obsOn       bool
}

// New creates a GPU attached to the engine and memory backend; st
// receives instruction/warp counters (typically the driver's stats).
func New(eng *sim.Engine, cfg config.Config, mem MemoryBackend, st *stats.Counters) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("gpu: %v", err))
	}
	memRun, _ := mem.(RunBackend)
	return &GPU{eng: eng, cfg: cfg, mem: mem, memRun: memRun, st: st, sms: make([]sm, cfg.NumSMs)}
}

// SetObs attaches observability instruments (nil detaches). The GPU
// publishes warp stall cycles: the time warps spend blocked on
// asynchronous memory, which thread-level parallelism failed to hide.
func (g *GPU) SetObs(r *obs.Run) {
	g.stallCycles, g.stallHist, g.obsOn = obs.Counter{}, nil, false
	if r == nil || r.Reg == nil {
		return
	}
	g.stallCycles = r.Reg.Counter("gpu.warp_stall_cycles")
	g.stallHist = r.Reg.Histogram("gpu.stall_cycles_per_memop")
	g.obsOn = true
}

// Launch starts a kernel; onDone fires when its last warp retires. Only
// one kernel may be in flight (cudaDeviceSynchronize semantics).
func (g *GPU) Launch(k Kernel, onDone func(finish sim.Cycle)) {
	if err := k.Validate(); err != nil {
		panic(err.Error())
	}
	if g.running {
		panic("gpu: kernel already running")
	}
	if k.WarpsPerCTA > g.cfg.MaxWarpsPerSM {
		panic(fmt.Sprintf("gpu: CTA of %d warps exceeds SM capacity %d", k.WarpsPerCTA, g.cfg.MaxWarpsPerSM))
	}
	g.kernel = k
	g.nextCTA = 0
	g.retiredWarps = 0
	g.totalWarps = k.CTAs * k.WarpsPerCTA
	g.onDone = onDone
	g.running = true
	g.dispatchCTAs()
}

// RunSync launches the kernel and drives the engine until it completes,
// returning the completion cycle.
func (g *GPU) RunSync(k Kernel) sim.Cycle {
	var finish sim.Cycle
	done := false
	g.Launch(k, func(at sim.Cycle) { done = true; finish = at })
	g.eng.Run()
	if !done {
		panic(fmt.Sprintf("gpu: kernel %q did not complete (deadlocked warps?)", k.Name))
	}
	return finish
}

// dispatchCTAs fills SM slots with pending CTAs, round-robin.
func (g *GPU) dispatchCTAs() {
	for g.nextCTA < g.kernel.CTAs {
		s := g.pickSM()
		if s == nil {
			return
		}
		cta := g.nextCTA
		g.nextCTA++
		s.residentCTAs++
		s.residentWarps += g.kernel.WarpsPerCTA
		cs := g.newCTAState(g.kernel.WarpsPerCTA, s)
		for wi := 0; wi < g.kernel.WarpsPerCTA; wi++ {
			g.step(g.newWarp(g.kernel.NewWarp(cta, wi), s, cs))
		}
	}
}

// newCTAState takes a CTA record from the pool (or allocates one).
func (g *GPU) newCTAState(warps int, s *sm) *ctaState {
	if n := len(g.ctaFree); n > 0 {
		cs := g.ctaFree[n-1]
		g.ctaFree = g.ctaFree[:n-1]
		cs.warpsLeft, cs.sm = warps, s
		return cs
	}
	return &ctaState{warpsLeft: warps, sm: s}
}

// warpBatch is one GPU's idle warps, handed to later GPUs through
// warpPool when its run ends.
type warpBatch struct{ warps []*warp }

// warpPool holds *warpBatch values across runs, so a cell's GPU reuses
// the warps of a finished cell instead of allocating its own. A warp is
// reset on reuse (newWarp), so nothing carries over between cells.
var warpPool sync.Pool

// Recycle puts the GPU's idle warps into the process-wide warp pool.
// Call it once a run is over: the GPU may still launch kernels
// afterwards, taking warps from the pool or allocating them again.
func (g *GPU) Recycle() {
	if len(g.warpFree) == 0 {
		return
	}
	for _, w := range g.warpFree {
		w.g = nil // let this GPU be collected while its warps wait
	}
	warpPool.Put(&warpBatch{warps: g.warpFree})
	g.warpFree = nil
}

// newWarp takes a warp from the GPU's free list, refilled from the
// process-wide pool when empty (or allocates one, binding its sector
// callback exactly once), and resets it for prog.
func (g *GPU) newWarp(prog WarpProgram, s *sm, cs *ctaState) *warp {
	if len(g.warpFree) == 0 {
		if b, ok := warpPool.Get().(*warpBatch); ok {
			g.warpFree = b.warps
		}
	}
	var w *warp
	if n := len(g.warpFree); n > 0 {
		w = g.warpFree[n-1]
		g.warpFree = g.warpFree[:n-1]
		w.instr = Instr{}
		w.nsec = 0
		w.outstanding = 0
		w.readyAt = 0
	} else {
		w = new(warp)
		w.sectorFn = func() { w.g.sectorDone(w) }
	}
	w.g, w.prog, w.sm, w.cta = g, prog, s, cs
	return w
}

// pickSM returns the least-loaded SM with room for one more CTA of the
// current kernel, or nil.
func (g *GPU) pickSM() *sm {
	var best *sm
	for i := range g.sms {
		s := &g.sms[i]
		if s.residentCTAs >= g.cfg.MaxCTAsPerSM {
			continue
		}
		if s.residentWarps+g.kernel.WarpsPerCTA > g.cfg.MaxWarpsPerSM {
			continue
		}
		if best == nil || s.residentWarps < best.residentWarps {
			best = s
		}
	}
	return best
}

// step advances a ready warp: it consumes pure-compute instructions in
// bulk, reserves SM issue time, and schedules the next memory issue or
// retirement.
//
//sim:hotpath
func (g *GPU) step(w *warp) {
	var computeCycles uint64
	for {
		if !w.prog.Next(&w.instr) {
			g.retire(w, computeCycles)
			return
		}
		g.st.Instructions++
		computeCycles += w.instr.Compute
		if w.instr.NumAddrs > 0 {
			g.st.MemInstructions++
			break
		}
	}
	// Coalesce lanes into unique 128B sectors now; the issue reservation
	// includes one LSU cycle per sector, so divergent instructions pay
	// for their fragmentation.
	g.coalesce(w)
	issue := computeCycles + uint64(w.nsec)
	end := g.reserve(w.sm, issue)
	g.eng.Schedule(end, (*warpIssue)(w))
}

// reserve occupies the SM issue port for cycles and returns the end time.
//
//sim:hotpath
func (g *GPU) reserve(s *sm, cycles uint64) sim.Cycle {
	start := g.eng.Now()
	if s.freeAt > start {
		start = s.freeAt
	}
	end := start + sim.Cycle(cycles)
	s.freeAt = end
	return end
}

// netThreshold is the largest unsorted gather the coalescer sorts by
// insertion; larger ones go through sortNet, which costs the same for
// any count. On random sectors the two cost about the same at 16 keys
// (roughly 260 ns each on a 2-core x86-64 VM); at 32 the insertion sort
// takes about 2.5 times as long.
const netThreshold = 16

//go:generate go run sortnet_gen.go

// coalesce replaces the current instruction's n >= 1 lanes with its
// unique sector addresses, in ascending order, in w.instr.Addrs[:w.nsec].
// Writing in place is safe on both paths: sector k is written only after
// lane k has been read. Dense instructions (nonzero Stride) derive their
// sectors arithmetically from Addrs[0], read before the first write. For
// gathers the masking pass keeps at most one sector per lane read so far
// and tracks whether the lanes arrived already sorted — broadcast and
// hand-written unit-stride patterns — so sorting runs only for genuinely
// divergent warps. Up to netThreshold unsorted sectors take an insertion
// sort; more take the branch-free sortNet, whose fixed 191
// compare-exchanges take about a third of an insertion sort's time on 32
// random sectors (ra's GUPS gathers). Both allocate nothing.
//
//sim:hotpath
func (g *GPU) coalesce(w *warp) {
	n := w.instr.NumAddrs
	if n > MaxLanes {
		panic(fmt.Sprintf("gpu: instruction with %d lanes", n))
	}
	if w.instr.Stride != 0 {
		w.nsec = coalesceDense(&w.instr.Addrs, w.instr.Addrs[0], memunits.Addr(w.instr.Stride), n)
		return
	}
	// Single pass: mask each lane to its sector, drop duplicates of the
	// previous kept sector (safe pre-sort: it only removes multiset
	// duplicates), and track whether the kept sequence is ascending. A
	// sorted sequence with adjacent duplicates removed is already the
	// unique sorted set, so the common case finishes here. The loop has
	// no data-dependent branch, since on random sectors one would
	// mispredict about half the time: every lane is stored and only the
	// count depends on the comparison (a conditional move), and a
	// descent sets desc through the subtraction's borrow.
	const mask = memunits.SectorSize - 1
	s := &w.instr.Addrs
	prev := s[0] &^ mask
	s[0] = prev
	k := 1
	var desc uint64
	for i := 1; i < n; i++ {
		b := s[i] &^ mask
		s[k] = b
		if b != prev {
			k++
		}
		_, borrow := bits.Sub64(b, prev, 0)
		desc |= borrow
		prev = b
	}
	if desc != 0 {
		if k > netThreshold {
			// Pad the unused lanes with the largest address so they
			// sort after every sector.
			for i := k; i < MaxLanes; i++ {
				s[i] = ^memunits.Addr(0)
			}
			sortNet(s)
		} else {
			for i := 1; i < k; i++ {
				v := s[i]
				j := i - 1
				for j >= 0 && s[j] > v {
					s[j+1] = s[j]
					j--
				}
				s[j+1] = v
			}
		}
		// Drop repeats, comparing each sector with the one before it
		// (sorted, it equals the last one kept) held in a register,
		// so no load waits on the previous iteration's store.
		u := 1
		prev = s[0]
		for i := 1; i < k; i++ {
			b := s[i]
			s[u] = b
			if b != prev {
				u++
			}
			prev = b
		}
		k = u
	}
	w.nsec = k
}

// coalesceDense writes the ascending sectors of n >= 1 lanes at
// first + i*stride into s and returns their count. A stride of at most
// one sector cannot skip a sector, so the lanes cover every sector from
// the first lane's to the last lane's; a larger stride puts each lane in
// its own sector. s may hold the lanes themselves: first is passed by
// value and no other lane is read.
//
//sim:hotpath
func coalesceDense(s *[MaxLanes]memunits.Addr, first, stride memunits.Addr, n int) int {
	const mask = memunits.SectorSize - 1
	if stride > memunits.SectorSize {
		for i := 0; i < n; i++ {
			s[i] = (first + memunits.Addr(i)*stride) &^ mask
		}
		return n
	}
	lo := first &^ mask
	hi := (first + memunits.Addr(n-1)*stride) &^ mask
	k := 0
	for b := lo; b <= hi; b += memunits.SectorSize {
		s[k] = b
		k++
	}
	return k
}

// issueMemory sends the coalesced sectors to the memory backend and
// arranges for the warp to resume when the last one completes. The warp
// does not issue another instruction until then, so reading the write
// flag and the sectors from w.instr here matches capturing them at
// schedule time.
//
// Sectors leave the coalescer sorted, so sectors of the same 64KB block
// are consecutive; multi-sector runs go to the backend's dense-run
// entry point in one call when it offers one.
//
//sim:hotpath
func (g *GPU) issueMemory(w *warp) {
	write := w.instr.Write
	w.outstanding = 0
	w.readyAt = g.eng.Now()
	w.issuedAt = w.readyAt
	sectors := w.instr.Addrs[:w.nsec]
	for i := 0; i < len(sectors); {
		j := i + 1
		if g.memRun != nil {
			b := memunits.BlockOf(sectors[i])
			for j < len(sectors) && memunits.BlockOf(sectors[j]) == b {
				j++
			}
			if j > i+1 {
				if at, ok := g.memRun.TryFastAccessRun(sectors[i:j], write); ok {
					if at > w.readyAt {
						w.readyAt = at
					}
					i = j
					continue
				}
			}
		}
		for ; i < j; i++ {
			addr := sectors[i]
			if at, ok := g.mem.TryFastAccess(addr, write); ok {
				if at > w.readyAt {
					w.readyAt = at
				}
				continue
			}
			w.outstanding++
			g.mem.Access(addr, write, w.sectorFn)
		}
	}
	if w.outstanding == 0 {
		g.resumeAt(w, w.readyAt)
	}
}

// sectorDone is the completion callback for one async sector.
func (g *GPU) sectorDone(w *warp) {
	w.outstanding--
	if w.outstanding < 0 {
		panic("gpu: sector completion underflow")
	}
	if w.outstanding == 0 {
		at := g.eng.Now()
		if w.readyAt > at {
			at = w.readyAt
		}
		if g.obsOn {
			stall := uint64(at - w.issuedAt)
			g.stallCycles.Add(stall)
			g.stallHist.Observe(stall)
		}
		g.resumeAt(w, at)
	}
}

// resumeAt schedules the warp's next step.
//
//sim:hotpath
func (g *GPU) resumeAt(w *warp, at sim.Cycle) {
	now := g.eng.Now()
	if at <= now {
		g.step(w)
		return
	}
	g.eng.Schedule(at, (*warpStep)(w))
}

// retire finishes a warp after its trailing compute cycles.
func (g *GPU) retire(w *warp, trailingCompute uint64) {
	if trailingCompute == 0 {
		g.finishWarp(w)
		return
	}
	end := g.reserve(w.sm, trailingCompute)
	g.eng.Schedule(end, (*warpRetire)(w))
}

// finishWarp performs retirement bookkeeping, releases the warp's
// program when it is a Releaser, and recycles the warp (and, on last
// retirement, its CTA record) back to the pools.
func (g *GPU) finishWarp(w *warp) {
	g.st.WarpsRetired++
	g.retiredWarps++
	w.sm.residentWarps--
	cta := w.cta
	if r, ok := w.prog.(Releaser); ok {
		r.Release()
	}
	w.prog, w.sm, w.cta = nil, nil, nil
	g.warpFree = append(g.warpFree, w)
	cta.warpsLeft--
	if cta.warpsLeft == 0 {
		cta.sm.residentCTAs--
		cta.sm = nil
		g.ctaFree = append(g.ctaFree, cta)
		g.dispatchCTAs()
	}
	if g.retiredWarps == g.totalWarps {
		g.finish()
	}
}

// finish completes the running kernel.
func (g *GPU) finish() {
	g.running = false
	if g.onDone != nil {
		g.onDone(g.eng.Now())
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/interconnect"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// layer is one timed boundary of the traced run. Each span is opened by
// the benchmark around a public call into the layer; nothing inside the
// simulator is instrumented.
type layer int

const (
	layerBuild    layer = iota // workload factories
	layerSetup                 // engine, pipeline, driver and GPU construction
	layerGPU                   // gpu.RunSync and the tail drain: engine dispatch, warp issue, coalescer, driver events
	layerNext                  // WarpProgram.Next (sampled)
	layerFast                  // TryFastAccess / TryFastAccessRun (sampled)
	layerAccess                // the driver's asynchronous Access path
	layerPlanner               // mm.MigrationPlanner
	layerBatcher               // mm.FaultBatcher
	layerPrefetch              // mm.PrefetchGovernor and its chunks
	layerEvictor               // mm.EvictionEngine
	numLayers
)

var layerNames = [numLayers]string{
	"workloads.build", "sim.setup", "gpu.run", "workloads.next", "uvm.fast",
	"uvm.access", "mm.planner", "mm.batcher", "mm.prefetch", "mm.evictor",
}

// sampleEvery is the timing period of the hot layers: every call is
// counted, one in sampleEvery is timed and stands for the calls between
// samples.
const sampleEvery = 64

// eventBudget is the livelock guard the simulator's single-GPU run sets
// on its engine.
const eventBudget = 2_000_000_000

// frame is one open span on the tracer's stack.
type frame struct {
	l     layer
	start time.Duration
	child time.Duration // time covered by nested spans
}

// spanRec is one kernel-level or cell-level span of the traced run.
type spanRec struct {
	Span   string  `json:"span"` // "cell" or "kernel"
	Cell   int     `json:"cell"`
	Kernel int     `json:"kernel,omitempty"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps a span stack and per-layer self times. A layer's self time
// is its spans' durations minus the part nested spans cover, so the self
// times of all layers add up to the traced wall time.
type tracer struct {
	base  time.Time
	stack []frame
	self  [numLayers]time.Duration
	calls [numLayers]uint64

	// Outcome counts measured at the layer boundaries.
	fastHits      uint64 // fast-path calls the device served
	migrates      uint64 // planner decisions to migrate
	evictions     uint64 // EvictOne calls that freed a victim
	batches       uint64 // closed fault batches
	batchedFaults uint64 // faults in closed batches
	pfFaults      uint64 // prefetch consults
	pfBlocks      uint64 // blocks those consults migrate

	// sim sums the simulated results of every traced run.
	sim simTotals

	spans []spanRec
	// spin is added to every planner call (the layer-attribution test).
	spin time.Duration
	// clock is the cost of reading the clock twice around nothing, taken
	// off every sampled duration.
	clock time.Duration
}

func newTracer(spin time.Duration) *tracer {
	t := &tracer{base: time.Now(), spin: spin}
	t.clock = t.clockCost()
	return t
}

// clockCost is the median over batches of the mean time an empty timed
// region measures.
func (t *tracer) clockCost() time.Duration {
	const batches, reads = 9, 10000
	costs := make([]float64, batches)
	for b := range costs {
		var sum time.Duration
		for i := 0; i < reads; i++ {
			start := t.now()
			sum += t.now() - start
		}
		costs[b] = float64(sum) / reads
	}
	return time.Duration(median(costs))
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) enter(l layer) {
	t.calls[l]++
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

func (t *tracer) exit() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := t.now() - f.start
	t.self[f.l] += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// sampled counts a call of hot layer l and reports whether to time it.
func (t *tracer) sampled(l layer) bool {
	t.calls[l]++
	return t.calls[l]%sampleEvery == 0
}

// charge books a timed hot call as sampleEvery calls of its duration.
func (t *tracer) charge(l layer, d time.Duration) {
	est := max(d-t.clock, 0) * sampleEvery
	t.self[l] += est
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += est
	}
}

// selfTotal is the sum of every layer's self time.
func (t *tracer) selfTotal() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// build runs a workload factory inside a workloads.build span.
func (t *tracer) build(name string, scale float64) *workloads.Built {
	t.enter(layerBuild)
	defer t.exit()
	return workloads.MustGet(name)(scale)
}

// pipeline resolves cfg's memory-management stages and wraps each one.
func (t *tracer) pipeline(cfg config.Config) (mm.Pipeline, error) {
	p, err := mm.Build(cfg)
	if err != nil {
		return mm.Pipeline{}, err
	}
	p.Planner = tracedPlanner{t, p.Planner}
	p.Batcher = tracedBatcher{t, p.Batcher}
	p.Prefetch = tracedGovernor{t, p.Prefetch}
	p.Evictor = tracedEvictor{t, p.Evictor}
	return p, nil
}

// node builds one driver and GPU over eng with traced stages and backend.
func (t *tracer) node(eng *sim.Engine, cfg config.Config, b *workloads.Built) (*uvm.Driver, *gpu.GPU, error) {
	pipe, err := t.pipeline(cfg)
	if err != nil {
		return nil, nil, err
	}
	drv := uvm.NewWithPipeline(eng, cfg, b.Space, pipe)
	return drv, gpu.New(eng, cfg, &tracedBackend{t, drv}, drv.Stats()), nil
}

// kernel wraps k so every warp program it creates is traced.
func (t *tracer) kernel(k gpu.Kernel) gpu.Kernel {
	newWarp := k.NewWarp
	k.NewWarp = func(cta, w int) gpu.WarpProgram { return &tracedProgram{t, newWarp(cta, w)} }
	return k
}

// finish checks that a driver quiesced and adds its results, which
// ended at cycle now, to the traced totals.
func (t *tracer) finish(drv *uvm.Driver, now sim.Cycle) error {
	if drv.PendingWork() {
		return fmt.Errorf("driver did not quiesce")
	}
	if err := drv.CheckConsistency(); err != nil {
		return err
	}
	drv.Finalize()
	t.sim.add(drv, uint64(now))
	return nil
}

// runCell simulates one single-GPU cell from scratch, as the simulator's
// own Run does (every kernel through gpu.RunSync, then the tail drain),
// with every layer traced. It returns the driver's counters and the
// cell's cycles.
func (t *tracer) runCell(idx int, name string, b *workloads.Built, cfg config.Config) (stats.Counters, uint64, error) {
	t.enter(layerSetup)
	eng := sim.NewEngine()
	eng.SetEventBudget(eventBudget)
	drv, g, err := t.node(eng, cfg, b)
	t.exit()
	if err != nil {
		return stats.Counters{}, 0, err
	}
	runStart := t.now()
	parent := fmt.Sprintf("cell:%d", idx)
	for i, k := range b.Kernels {
		start := t.now()
		t.enter(layerGPU)
		g.RunSync(t.kernel(k))
		t.exit()
		t.spans = append(t.spans, spanRec{Span: "kernel", Cell: idx, Kernel: i, Name: k.Name, Parent: parent, Start: micros(start), End: micros(t.now())})
	}
	t.enter(layerGPU)
	eng.Run()
	t.exit()
	t.spans = append(t.spans, spanRec{Span: "cell", Cell: idx, Name: name, Start: micros(runStart), End: micros(t.now())})
	t.sim.events += eng.Fired()
	if err := t.finish(drv, eng.Now()); err != nil {
		return stats.Counters{}, 0, fmt.Errorf("%s: %w", name, err)
	}
	return *drv.Stats(), uint64(eng.Now()), nil
}

// simTotals sums the simulated results the per-layer metrics report.
type simTotals struct {
	cycles, events, instructions, memInstructions uint64
	farFaults, faultBatches, remote               uint64
	migrated, evicted, thrashed                   uint64
	tlbHits, tlbMisses                            uint64
	h2dBytes, d2hBytes, h2dBusy                   uint64
}

// add folds in one finalized driver whose run lasted cycles.
func (s *simTotals) add(drv *uvm.Driver, cycles uint64) {
	c := drv.Stats()
	s.cycles += cycles
	s.instructions += c.Instructions
	s.memInstructions += c.MemInstructions
	s.farFaults += c.FarFaults
	s.faultBatches += c.FaultBatches
	s.remote += c.RemoteAccesses()
	s.migrated += c.MigratedPages
	s.evicted += c.EvictedPages
	s.thrashed += c.ThrashedPages
	s.tlbHits += c.TLBHits
	s.tlbMisses += c.TLBMisses
	s.h2dBytes += c.H2DBytes
	s.d2hBytes += c.D2HBytes
	s.h2dBusy += drv.Link().Stats(interconnect.HostToDevice).BusyCycles
}

// tracedBackend is the GPU's memory backend: the driver behind
// uvm.fast and uvm.access spans.
type tracedBackend struct {
	t *tracer
	d *uvm.Driver
}

func (b *tracedBackend) TryFastAccess(addr memunits.Addr, write bool) (sim.Cycle, bool) {
	t := b.t
	var at sim.Cycle
	var ok bool
	if t.sampled(layerFast) {
		start := t.now()
		at, ok = b.d.TryFastAccess(addr, write)
		t.charge(layerFast, t.now()-start)
	} else {
		at, ok = b.d.TryFastAccess(addr, write)
	}
	if ok {
		t.fastHits++
	}
	return at, ok
}

func (b *tracedBackend) TryFastAccessRun(addrs []memunits.Addr, write bool) (sim.Cycle, bool) {
	t := b.t
	var at sim.Cycle
	var ok bool
	if t.sampled(layerFast) {
		start := t.now()
		at, ok = b.d.TryFastAccessRun(addrs, write)
		t.charge(layerFast, t.now()-start)
	} else {
		at, ok = b.d.TryFastAccessRun(addrs, write)
	}
	if ok {
		t.fastHits++
	}
	return at, ok
}

func (b *tracedBackend) Access(addr memunits.Addr, write bool, done func()) {
	b.t.enter(layerAccess)
	b.d.Access(addr, write, done)
	b.t.exit()
}

// tracedProgram times WarpProgram.Next.
type tracedProgram struct {
	t *tracer
	p gpu.WarpProgram
}

func (w *tracedProgram) Next(in *gpu.Instr) bool {
	t := w.t
	if !t.sampled(layerNext) {
		return w.p.Next(in)
	}
	start := t.now()
	ok := w.p.Next(in)
	t.charge(layerNext, t.now()-start)
	return ok
}

type tracedPlanner struct {
	t *tracer
	mm.MigrationPlanner
}

func (p tracedPlanner) ShouldMigrate(a mm.Access) bool {
	t := p.t
	t.enter(layerPlanner)
	if t.spin > 0 {
		for start := t.now(); t.now()-start < t.spin; {
		}
	}
	m := p.MigrationPlanner.ShouldMigrate(a)
	if m {
		t.migrates++
	}
	t.exit()
	return m
}

type tracedBatcher struct {
	t *tracer
	mm.FaultBatcher
}

func (b tracedBatcher) Add(block memunits.BlockNum) bool {
	b.t.enter(layerBatcher)
	opened := b.FaultBatcher.Add(block)
	b.t.exit()
	return opened
}

func (b tracedBatcher) Close() []memunits.BlockNum {
	b.t.enter(layerBatcher)
	batch := b.FaultBatcher.Close()
	b.t.batches++
	b.t.batchedFaults += uint64(len(batch))
	b.t.exit()
	return batch
}

type tracedGovernor struct {
	t *tracer
	mm.PrefetchGovernor
}

func (g tracedGovernor) NewChunk(nBlocks int) mm.ChunkPrefetcher {
	g.t.enter(layerPrefetch)
	c := g.PrefetchGovernor.NewChunk(nBlocks)
	g.t.exit()
	return tracedChunk{g.t, c}
}

type tracedChunk struct {
	t *tracer
	mm.ChunkPrefetcher
}

func (c tracedChunk) OnFault(i int) []int {
	c.t.enter(layerPrefetch)
	blocks := c.ChunkPrefetcher.OnFault(i)
	c.t.pfFaults++
	c.t.pfBlocks += uint64(len(blocks))
	c.t.exit()
	return blocks
}

type tracedEvictor struct {
	t *tracer
	mm.EvictionEngine
}

func (e tracedEvictor) EvictOne(h mm.EvictionHost) bool {
	e.t.enter(layerEvictor)
	ok := e.EvictionEngine.EvictOne(h)
	if ok {
		e.t.evictions++
	}
	e.t.exit()
	return ok
}

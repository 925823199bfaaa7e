package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"uvmsim"
	"uvmsim/internal/config"
	"uvmsim/internal/counters"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// input is one workload build: a factory name at a scale.
type input struct {
	name  string
	scale float64
}

// cell is one single-GPU simulation: an input under a derived config.
type cell struct {
	name string
	in   input
	cfg  config.Config
}

// inputsOf lists the distinct inputs of cells in first-use order.
func inputsOf(cells []cell) []input {
	var ins []input
	for _, c := range cells {
		if !slices.Contains(ins, c.in) {
			ins = append(ins, c.in)
		}
	}
	return ins
}

// buildAll runs every input's factory.
func buildAll(ins []input) map[input]*workloads.Built {
	built := make(map[input]*workloads.Built, len(ins))
	for _, in := range ins {
		built[in] = workloads.MustGet(in.name)(in.scale)
	}
	return built
}

// layerRun is one traced run: the tracer, the untraced reference time of
// the same work, and the per-layer metrics gathered so far.
type layerRun struct {
	t *tracer
	// tracedS and plainS time the same work traced and untraced, builds
	// included; plainSimS is plainS without the builds.
	tracedS, plainS, plainSimS float64
	// stream is the near-access block stream of the cell with the most
	// near accesses, replayed through the counter file.
	stream  []uint32
	metrics map[string]float64
}

func newLayerRun(spin time.Duration) *layerRun {
	return &layerRun{t: newTracer(spin), metrics: make(map[string]float64)}
}

// traceCells runs cells from scratch one at a time, first untraced (the
// reference for the tracing overhead and host time per event) and then
// traced, and fails unless both produce identical counters and cycles.
// It returns the untraced results in cell order.
func (l *layerRun) traceCells(cells []cell) ([]stats.Counters, error) {
	ins := inputsOf(cells)
	start := time.Now()
	built := buildAll(ins)
	simStart := time.Now()
	plain := make([]stats.Counters, len(cells))
	drivers := make([]stats.Counters, len(cells))
	for i, c := range cells {
		s := uvmsim.New(built[c.in], c.cfg)
		plain[i], drivers[i] = s.Run().Counters, *s.Driver.Stats()
	}
	l.plainSimS += time.Since(simStart).Seconds()
	l.plainS += time.Since(start).Seconds()

	start = time.Now()
	tbuilt := make(map[input]*workloads.Built, len(ins))
	for _, in := range ins {
		tbuilt[in] = l.t.build(in.name, in.scale)
	}
	for i, c := range cells {
		st, cycles, err := l.t.runCell(i, c.name, tbuilt[c.in], c.cfg)
		if err != nil {
			return nil, err
		}
		if st != drivers[i] || cycles != plain[i].Cycles {
			return nil, fmt.Errorf("cell %s: traced run differs from the untraced one (%d vs %d cycles)", c.name, cycles, plain[i].Cycles)
		}
	}
	l.tracedS += time.Since(start).Seconds()
	if l.stream == nil {
		busiest := 0
		for i := range plain {
			if plain[i].NearAccesses > plain[busiest].NearAccesses {
				busiest = i
			}
		}
		l.stream = captureStream(built[cells[busiest].in], cells[busiest].cfg)
	}
	return plain, nil
}

// maxStream caps the captured near-access stream.
const maxStream = 1 << 24

// captureStream runs one cell with an access observer and returns the
// block numbers of its near accesses, the stream the driver feeds its
// access-counter file.
func captureStream(b *workloads.Built, cfg config.Config) []uint32 {
	s := uvmsim.New(b, cfg)
	blocks := make([]uint32, 0, 1<<16)
	s.SetObserver(func(_ sim.Cycle, addr memunits.Addr, _ bool, kind uvm.AccessKind) {
		if kind == uvm.AccessNear && len(blocks) < maxStream {
			blocks = append(blocks, uint32(min(uint64(memunits.BlockOf(addr)), math.MaxUint32)))
		}
	})
	s.Run()
	return blocks
}

// replayNsPerAccess replays the stream through fresh counter files and
// returns the median host time per access over three replays.
func replayNsPerAccess(blocks []uint32) float64 {
	if len(blocks) == 0 {
		return 0
	}
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		f := counters.New()
		start := time.Now()
		for _, b := range blocks {
			f.Access(uint64(b))
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(blocks)))
	}
	return median(ns)
}

// layerMetrics is every per-layer metric, with zero for the layers a
// workload does not use; workload-specific values are set on l.metrics
// before the call.
func (l *layerRun) layerMetrics() map[string]float64 {
	t := l.t
	sec := func(x layer) float64 { return t.self[x].Seconds() }
	calls := func(x layer) float64 { return float64(t.calls[x]) }
	c := &t.sim
	count := func(n uint64) float64 { return float64(n) }
	m := map[string]float64{
		"workloads.build_s":            sec(layerBuild),
		"workloads.next_calls":         calls(layerNext),
		"workloads.next_self_s":        sec(layerNext),
		"gpu.run_self_s":               sec(layerGPU),
		"gpu.instructions":             count(c.instructions),
		"gpu.mem_instructions":         count(c.memInstructions),
		"sim.events":                   count(c.events),
		"sim.ns_per_event":             ratio(l.plainSimS*1e9, count(c.events)),
		"uvm.fast_calls":               calls(layerFast),
		"uvm.fast_hit_ratio":           ratio(float64(t.fastHits), calls(layerFast)),
		"uvm.fast_self_s":              sec(layerFast),
		"uvm.access_calls":             calls(layerAccess),
		"uvm.access_self_s":            sec(layerAccess),
		"uvm.far_faults":               count(c.farFaults),
		"uvm.fault_batches":            count(c.faultBatches),
		"uvm.migrated_pages":           count(c.migrated),
		"uvm.evicted_pages":            count(c.evicted),
		"uvm.thrashed_pages":           count(c.thrashed),
		"uvm.remote_accesses":          count(c.remote),
		"uvm.tlb_miss_ratio":           ratio(count(c.tlbMisses), count(c.tlbHits+c.tlbMisses)),
		"mm.evictor_calls":             calls(layerEvictor),
		"mm.evictor_success_ratio":     ratio(float64(t.evictions), calls(layerEvictor)),
		"mm.evictor_ns_per_call":       ratio(float64(t.self[layerEvictor].Nanoseconds()), calls(layerEvictor)),
		"mm.evictor_self_s":            sec(layerEvictor),
		"mm.planner_calls":             calls(layerPlanner),
		"mm.planner_migrate_ratio":     ratio(float64(t.migrates), calls(layerPlanner)),
		"mm.planner_self_s":            sec(layerPlanner),
		"mm.batcher_self_s":            sec(layerBatcher),
		"mm.faults_per_batch":          ratio(float64(t.batchedFaults), float64(t.batches)),
		"mm.prefetch_self_s":           sec(layerPrefetch),
		"mm.prefetch_blocks_per_fault": ratio(float64(t.pfBlocks), float64(t.pfFaults)),
		"counters.accesses":            float64(len(l.stream)),
		"counters.ns_per_access":       replayNsPerAccess(l.stream),
		"pcie.h2d_bytes":               count(c.h2dBytes),
		"pcie.d2h_bytes":               count(c.d2hBytes),
		"pcie.h2d_util":                ratio(count(c.h2dBusy), count(c.cycles)),
		"snapshot.shared_kernel_frac":  0,
		"snapshot.forked_cells":        0,
		"sweep.cells":                  0,
		"sweep.speedup":                0,
		"serve.hit_ratio":              0,
		"serve.cells_simulated":        0,
		"serve.cells_forked":           0,
		"serve.job_p95_ms":             0,
		"serve.hit_job_p50_ms":         0,
		"serve.miss_job_p50_ms":        0,
		"multigpu.pdes_speedup":        0,
		"multigpu.pdes_steps":          0,
		"multigpu.events_per_step":     0,
		"multigpu.pdes_efficiency":     0,
		"cxl.colo_speedup":             0,
		"cxl.fairness":                 0,
		"trace.overhead_frac":          ratio(l.tracedS, l.plainS) - 1,
		"trace.coverage":               ratio(t.selfTotal().Seconds(), l.tracedS),
	}
	for _, k := range sortedKeys(l.metrics) {
		if _, ok := m[k]; !ok {
			panic(fmt.Sprintf("bench: undeclared layer metric %q", k))
		}
		m[k] = l.metrics[k]
	}
	return m
}

// report prints the traced run's self-time table to w.
func (l *layerRun) report(w io.Writer) {
	fmt.Fprintf(w, "traced %.3fs, untraced %.3fs (overhead %+.1f%%), self-time coverage %.1f%%\n",
		l.tracedS, l.plainS, 100*(ratio(l.tracedS, l.plainS)-1), 100*ratio(l.t.selfTotal().Seconds(), l.tracedS))
	for i, name := range layerNames {
		fmt.Fprintf(w, "  %-16s self %8.3fs %5.1f%%  calls %d\n", name, l.t.self[i].Seconds(),
			100*ratio(l.t.self[i].Seconds(), l.tracedS), l.t.calls[i])
	}
}

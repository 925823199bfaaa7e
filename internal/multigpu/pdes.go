// Parallel discrete-event execution (PDES) for cluster runs.
//
// # Model
//
// Every GPU+driver node owns a private sim.Engine; nodes share only
// immutable state (the allocation space and the built workload's
// kernels and graph data). Within a kernel, nodes interact with nothing
// but their own driver, device memory and PCIe link — cross-node
// influence exists solely through the bulk-synchronous kernel barrier.
// Each node's event stream is therefore independent of how the streams
// interleave, which is what makes the parallel run *byte-identical* to
// the sequential shared-engine run: the shared engine merely
// interleaves the same per-node streams by (cycle, seq) without
// changing any node's view.
//
// # Protocol
//
// One drain round per barrier: the coordinator runs every node engine
// to empty on W goroutines and returns. Since no node can affect
// another before the barrier, no horizon bounds the round. Cross-node
// effects are exchanged only between rounds, on the calling goroutine
// in fixed node order: kernel-barrier completion checks and barrier
// clock alignment (sim.AdvanceTo to the max last-event time,
// reproducing the shared engine's clock at launch). Invariant sweeps
// ride on each node's own engine daemon, so they see only that node's
// state. Worker assignment is static (node i belongs to worker i mod
// W), so a node's engine is touched by one goroutine per round, and the
// round's WaitGroup orders every worker's mutations before the caller's
// reads.
package multigpu

import (
	"fmt"
	"sync"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Coordinator drains a set of private engines concurrently, one round
// per call. It is generic over engines, not cluster nodes: any model
// whose partitions interact only at barriers (multi-GPU kernels here,
// the CXL co-location epochs in internal/cxl) can drive its engines
// through one. Exported methods must be called from a single goroutine.
type Coordinator struct {
	engines []*sim.Engine
	workers int

	// panics holds each engine's recovered panic of the current round
	// (nil when its drain returned normally).
	panics []any

	// Deterministic efficiency accounting (published via obs).
	steps uint64 // drain rounds
	idle  uint64 // engine-rounds with nothing pending at round start
}

// NewCoordinator wires a coordinator over the engines; workers must be
// in [2, len(engines)].
func NewCoordinator(engines []*sim.Engine, workers int) *Coordinator {
	if workers < 2 || workers > len(engines) {
		panic(fmt.Sprintf("multigpu: coordinator with %d workers over %d engines", workers, len(engines)))
	}
	return &Coordinator{engines: engines, workers: workers, panics: make([]any, len(engines))}
}

// Drain runs every engine to empty, worker 0 on the calling goroutine
// and the others on fresh ones, and returns when all are done. A panic
// inside any engine's drain is recovered so the other engines finish
// the round; Drain then re-panics the value recovered from the lowest
// engine index, on the calling goroutine.
func (co *Coordinator) Drain() {
	co.steps++
	for _, e := range co.engines {
		if e.Pending() == 0 {
			co.idle++
		}
	}
	var wg sync.WaitGroup
	wg.Add(co.workers - 1)
	for w := 1; w < co.workers; w++ {
		go func(w int) {
			defer wg.Done()
			co.drainShare(w)
		}(w)
	}
	co.drainShare(0)
	wg.Wait()
	for _, p := range co.panics {
		if p != nil {
			panic(p)
		}
	}
}

// drainShare runs worker w's engines (indexes w, w+W, ...) to empty.
//
//sim:hotpath
func (co *Coordinator) drainShare(w int) {
	for i := w; i < len(co.engines); i += co.workers {
		co.panics[i] = drainRecovered(co.engines[i])
	}
}

// drainRecovered runs e to empty and returns the value of any panic it
// raised.
func drainRecovered(e *sim.Engine) (p any) {
	defer func() { p = recover() }()
	e.Run()
	return nil
}

// efficiency is the busy fraction of engine-rounds — a deterministic,
// wall-clock-free proxy for parallel efficiency (identical across
// machines and worker counts, unlike a speedup measurement).
func (co *Coordinator) efficiency() float64 {
	total := co.steps * uint64(len(co.engines))
	if total == 0 {
		return 0
	}
	return 1 - float64(co.idle)/float64(total)
}

// Publish registers the coordinator's efficiency metrics on the
// registry; values are read at collection time, after the run.
func (co *Coordinator) Publish(reg *obs.Registry) {
	reg.RegisterProvider(func(e obs.Emitter) {
		e.Counter(obs.MetricPDESSteps, co.steps)
		e.Counter(obs.MetricPDESIdleRounds, co.idle)
		e.Counter(obs.MetricPDESWorkers, uint64(co.workers))
		e.Gauge(obs.MetricPDESEfficiency, co.efficiency())
	})
}

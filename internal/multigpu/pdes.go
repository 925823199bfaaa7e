// Parallel discrete-event execution (PDES) for cluster runs.
//
// # Model
//
// Every GPU+driver node owns a private sim.Engine; nodes share only
// immutable state (the allocation space and the built workload's
// kernels and graph data). Within a kernel, nodes interact with nothing
// but their own driver, device memory and PCIe link — cross-node
// influence exists solely through the bulk-synchronous kernel barrier.
// Each node's event stream is therefore a function of the barrier
// state alone, not of when or on which goroutine other nodes run: the
// result is byte-identical for every worker count and every order in
// which the engines drain (pdes_test.go checks both against a
// reference that interleaves all nodes on one engine by (cycle, seq)).
//
// # Protocol
//
// One drain round per barrier: the coordinator runs every node engine
// to empty on W goroutines (W = 1 drains on the caller alone), then
// aligns every engine clock on the barrier — the latest engine clock —
// with sim.AdvanceTo, so the next round's launches observe the same Now
// on every node. Since no node can affect another before the barrier,
// no horizon bounds the round. Cross-node effects (kernel-barrier
// completion checks) are exchanged only between rounds, on the calling
// goroutine in fixed node order. Invariant sweeps ride on each node's
// own engine daemon, so they see only that node's state. Worker
// assignment is static (node i belongs to worker i mod W), so a node's
// engine is touched by one goroutine per round, and the round's
// WaitGroup orders every worker's mutations before the caller's reads.
package multigpu

import (
	"fmt"
	"sync"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Coordinator drains a set of private engines, one barrier round per
// call. It is generic over engines, not cluster nodes: any model whose
// partitions interact only at barriers (multi-GPU kernels here, the CXL
// co-location epochs in internal/cxl) drives its engines through one,
// and it is the only code that drains them and aligns their clocks.
// Exported methods must be called from a single goroutine.
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
// in [1, len(engines)].
func NewCoordinator(engines []*sim.Engine, workers int) *Coordinator {
	if workers < 1 || workers > len(engines) {
		panic(fmt.Sprintf("multigpu: coordinator with %d workers over %d engines", workers, len(engines)))
	}
	return &Coordinator{engines: engines, workers: workers, panics: make([]any, len(engines))}
}

// Drain runs every engine to empty, worker 0 on the calling goroutine
// and the others on fresh ones, moves every engine clock to the latest
// one and returns that barrier cycle. A panic inside any engine's drain
// is recovered so the other engines finish the round; Drain then
// re-panics the value recovered from the lowest engine index, on the
// calling goroutine, without aligning the clocks.
func (co *Coordinator) Drain() sim.Cycle {
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
	var at sim.Cycle
	for _, e := range co.engines {
		at = max(at, e.Now())
	}
	for _, e := range co.engines {
		e.AdvanceTo(at)
	}
	return at
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

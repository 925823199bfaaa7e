// Parallel discrete-event execution (PDES): one engine per partition,
// drained together once per barrier.
//
// # Model
//
// A model partitions its state so that each partition owns a private
// Engine and the partitions interact only at bulk-synchronous barriers:
// the GPU nodes of a simulation between kernels (internal/core), the
// GPUs of a CXL co-location scenario between epochs (internal/cxl).
// Each partition's event stream is then a function of the barrier
// state alone, not of when or on which goroutine other partitions run,
// so results are byte-identical for every worker count and every order
// in which the engines drain (internal/core's cluster tests check both
// against a reference that interleaves all nodes on one engine by
// (cycle, seq)).
//
// # Protocol
//
// One drain round per barrier: the coordinator runs every node engine
// to empty on W goroutines (W = 1 drains on the caller alone), then
// aligns every engine clock on the barrier — the latest engine clock —
// with AdvanceTo, so the next round's launches observe the same Now on
// every engine. Since no partition can affect another before the
// barrier, no horizon bounds the round. Cross-partition effects are
// exchanged only between rounds, on the calling goroutine in fixed
// order. Invariant sweeps ride on each engine's own daemon, so they see
// only that partition's state. Worker assignment is static (engine i
// belongs to worker i mod W), so an engine is touched by one goroutine
// per round, and the round's WaitGroup orders every worker's mutations
// before the caller's reads.

package sim

import (
	"fmt"
	"sync"

	"uvmsim/internal/obs"
)

// Coordinator drains a set of private engines, one barrier round per
// call. Every model whose partitions interact only at barriers drives
// its engines through one (a single-GPU run is a one-engine
// coordinator), and it is the only code that drains them and aligns
// their clocks.
// Exported methods must be called from a single goroutine.
type Coordinator struct {
	engines []*Engine
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
func NewCoordinator(engines []*Engine, workers int) *Coordinator {
	if workers < 1 || workers > len(engines) {
		panic(fmt.Sprintf("sim: coordinator with %d workers over %d engines", workers, len(engines)))
	}
	return &Coordinator{engines: engines, workers: workers, panics: make([]any, len(engines))}
}

// Drain runs every engine to empty, worker 0 on the calling goroutine
// and the others on fresh ones, moves every engine clock to the latest
// one and returns that barrier cycle. A panic inside any engine's drain
// is recovered so the other engines finish the round; Drain then
// re-panics the value recovered from the lowest engine index, on the
// calling goroutine, without aligning the clocks.
func (co *Coordinator) Drain() Cycle {
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
	var at Cycle
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
func drainRecovered(e *Engine) (p any) {
	defer func() { p = recover() }()
	e.Run()
	return nil
}

// Workers reports the drain worker count, in [1, len(engines)].
func (co *Coordinator) Workers() int { return co.workers }

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

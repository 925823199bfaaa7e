// Conservative parallel discrete-event execution (PDES) for cluster
// runs.
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
// The coordinator repeatedly computes the safe horizon — the minimum
// next-event time across nodes plus the model lookahead (one
// host-memory round trip over PCIe, the minimum cross-node interaction
// latency) — and has a fixed worker pool advance every node engine up
// to it with sim.DrainUntil (which never pads clocks). Cross-node
// effects are exchanged only with all workers parked, in fixed node
// order: kernel-barrier completion checks, barrier clock alignment
// (sim.AdvanceTo to the max last-event time, reproducing the shared
// engine's clock at launch), and cluster-wide obs invariant sweeps.
// Worker assignment is static (node i belongs to worker i mod W), so a
// node's engine is only ever touched by one goroutine per round, and
// the cmd/done channel pair orders every round's mutations before the
// coordinator's reads.
package multigpu

import (
	"fmt"

	"uvmsim/internal/gpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Coordinator advances a set of private engines in lockstep horizon
// rounds. It is generic over engines, not cluster nodes: any model
// whose partitions interact no faster than the lookahead (multi-GPU
// kernels here, the CXL co-location scenarios in internal/cxl) can
// drive its engines through one. Exported methods must be called from
// a single goroutine; the Coordinator owns its worker pool.
type Coordinator struct {
	engines   []*sim.Engine
	workers   int
	lookahead sim.Cycle

	// cmd carries each round's drain deadline to one worker; done
	// returns one token per worker per round. Closing cmd stops the
	// pool. Channel hand-offs are the only synchronization: a send
	// happens-before the worker's drains, which happen-before its done
	// send, which happens-before the coordinator's next reads.
	cmd  []chan sim.Cycle
	done chan struct{}

	// Invariant sweep at horizon boundaries (Observe wires this).
	sweepEvery sim.Cycle
	sweepFn    func(sim.Cycle)
	sweepNext  sim.Cycle

	// Deterministic efficiency accounting (published via obs).
	steps  uint64 // horizon rounds completed
	stalls uint64 // node-rounds with no event inside the horizon
}

// NewCoordinator wires a coordinator over the engines; workers must be
// in [2, len(engines)] and lookahead positive.
func NewCoordinator(engines []*sim.Engine, workers int, lookahead sim.Cycle) *Coordinator {
	if workers < 2 || workers > len(engines) || lookahead == 0 {
		panic(fmt.Sprintf("multigpu: coordinator with %d workers over %d engines, lookahead %d",
			workers, len(engines), lookahead))
	}
	return &Coordinator{engines: engines, workers: workers, lookahead: lookahead}
}

// newCoordinator wires a Coordinator over cluster nodes.
func newCoordinator(nodes []*node, workers int, lookahead sim.Cycle) *Coordinator {
	engines := make([]*sim.Engine, len(nodes))
	for i, n := range nodes {
		engines[i] = n.eng
	}
	return NewCoordinator(engines, workers, lookahead)
}

// Start spawns the worker pool (one goroutine per worker, fixed engine
// assignment). Every Start is paired with a Stop.
func (co *Coordinator) Start() {
	if co.cmd != nil {
		panic("multigpu: coordinator already running")
	}
	co.cmd = make([]chan sim.Cycle, co.workers)
	co.done = make(chan struct{}, co.workers)
	for w := range co.cmd {
		co.cmd[w] = make(chan sim.Cycle)
		go co.worker(w)
	}
}

// Stop terminates the worker pool.
func (co *Coordinator) Stop() {
	for _, ch := range co.cmd {
		close(ch)
	}
	co.cmd = nil
	co.done = nil
}

// worker drains this worker's nodes to each commanded deadline until
// the command channel closes.
//
//sim:hotpath
func (co *Coordinator) worker(w int) {
	for deadline := range co.cmd[w] {
		for i := w; i < len(co.engines); i += co.workers {
			co.engines[i].DrainUntil(deadline)
		}
		co.done <- struct{}{}
	}
}

// SetSweep installs (or, with every == 0, removes) the horizon-boundary
// invariant sweep; mirrors sim.Engine.SetDaemon semantics.
func (co *Coordinator) SetSweep(every sim.Cycle, fn func(sim.Cycle)) {
	if (every == 0) != (fn == nil) {
		panic("multigpu: setSweep needs both a period and a function (or neither)")
	}
	co.sweepEvery, co.sweepFn = every, fn
	co.sweepNext = every
}

// Drain runs horizon rounds until every engine is empty. Each
// round advances all engines concurrently to min-next-event+lookahead,
// which can never violate causality: nothing a node does before the
// horizon can reach another node sooner than one interconnect round
// trip (and, in this model, not before the kernel barrier at all).
//
//sim:hotpath
func (co *Coordinator) Drain() {
	for {
		min := sim.MaxCycle
		any := false
		for _, e := range co.engines {
			if at, ok := e.NextEventAt(); ok && at < min {
				min = at
				any = true
			}
		}
		if !any {
			return
		}
		horizon := min + co.lookahead
		if horizon < min {
			horizon = sim.MaxCycle // saturate near the end of time
		}
		for _, e := range co.engines {
			if at, ok := e.NextEventAt(); !ok || at > horizon {
				co.stalls++
			}
		}
		co.steps++
		for _, ch := range co.cmd {
			ch <- horizon
		}
		for range co.cmd {
			<-co.done
		}
		co.maybeSweep()
	}
}

// maybeSweep fires the cluster-wide invariant sweep when at least
// sweepEvery cycles of simulated time have passed since the previous
// sweep. It runs on the coordinator goroutine with every worker parked,
// observing real post-round state in fixed node order, so — like the
// sequential engine daemon — it can never perturb results.
//
//sim:hotpath
func (co *Coordinator) maybeSweep() {
	if co.sweepEvery == 0 {
		return
	}
	var now sim.Cycle
	for _, e := range co.engines {
		if t := e.Now(); t > now {
			now = t
		}
	}
	if now >= co.sweepNext {
		co.sweepNext = now + co.sweepEvery
		co.sweepFn(now)
	}
}

// efficiency is the busy fraction of node-rounds — a deterministic,
// wall-clock-free proxy for parallel efficiency (identical across
// machines and worker counts, unlike a speedup measurement).
func (co *Coordinator) efficiency() float64 {
	total := co.steps * uint64(len(co.engines))
	if total == 0 {
		return 0
	}
	return 1 - float64(co.stalls)/float64(total)
}

// Publish registers the coordinator's efficiency metrics on the
// registry; values are read at collection time, after the run.
func (co *Coordinator) Publish(reg *obs.Registry) {
	reg.RegisterProvider(func(e obs.Emitter) {
		e.Counter(obs.MetricPDESSteps, co.steps)
		e.Counter(obs.MetricPDESHorizonStalls, co.stalls)
		e.Counter(obs.MetricPDESWorkers, uint64(co.workers))
		e.Counter(obs.MetricPDESLookahead, uint64(co.lookahead))
		e.Gauge(obs.MetricPDESEfficiency, co.efficiency())
	})
}

// runKernelParallel is runKernel's PDES path: one bulk-synchronous
// kernel over per-node engines. The barrier after the kernel is the max
// last-event time across nodes — exactly the shared engine's clock
// after its drain — and every node clock is aligned to it before the
// next fixed-order launch round, so launches observe the same Now they
// would sequentially. The worker pool lives for exactly one kernel
// (Start/Stop bracket the call), which keeps every goroutine's shutdown
// provable from the call site.
func (c *Cluster) runKernelParallel(k gpu.Kernel) {
	co := c.par
	co.Start()
	defer co.Stop()
	for idx, n := range c.nodes {
		sub, ok := splitKernel(k, len(c.nodes), idx)
		n.launched = ok
		n.finished = false
		if !ok {
			continue
		}
		n.g.Launch(sub, n.onKernelDone)
	}
	co.Drain() // also drains trailing prefetch transfers
	for idx, n := range c.nodes {
		if n.launched && !n.finished {
			panic(fmt.Sprintf("multigpu: kernel %s left gpu%d unfinished", k.Name, idx))
		}
	}
	var barrier sim.Cycle
	for _, n := range c.nodes {
		if n.eng.Now() > barrier {
			barrier = n.eng.Now()
		}
	}
	for _, n := range c.nodes {
		n.eng.AdvanceTo(barrier)
	}
}

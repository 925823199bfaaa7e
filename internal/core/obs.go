package core

import (
	"fmt"
	"reflect"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Observe attaches observability to every GPU: mk is called once per
// GPU and may return nil (or a disabled Run) to leave that GPU
// unobserved. An observed GPU publishes its driver and GPU metrics, the
// run-wide engine totals (sim.cycles, sim.events_fired) and the
// coordinator's pdes.* metrics, and traces the kernel spans. When
// CheckEvery > 0, the GPU's engine daemon sweeps its invariants — the
// driver's cross-structure accounting and every stats counter's
// monotonicity — panicking with a cycle-stamped *obs.Violation on the
// first breach. Call before Run.
func (s *Simulator) Observe(mk func(gpu int) *obs.Run) {
	for idx, n := range s.nodes {
		r := mk(idx)
		n.tr, n.ck = nil, nil
		n.eng.SetDaemon(0, nil)
		n.drv.SetObs(r)
		n.g.SetObs(r)
		if !r.Enabled() {
			continue
		}
		n.tr = r.Tr
		if r.Reg != nil {
			r.Reg.RegisterProvider(func(e obs.Emitter) {
				// Run-wide totals, identical for every worker count: the
				// barrier clock and the union of every node's events.
				var now sim.Cycle
				var fired uint64
				for _, n := range s.nodes {
					now = max(now, n.eng.Now())
					fired += n.eng.Fired()
				}
				e.Counter("sim.cycles", uint64(now))
				e.Counter("sim.events_fired", fired)
			})
			s.co.Publish(r.Reg)
		}
		if r.CheckEvery > 0 {
			n.ck = s.newChecker(idx)
			// The sweep rides on the engine's daemon hook: it observes
			// state at real event boundaries and can never extend the
			// run, so cycle counts are identical with and without
			// checking.
			n.eng.SetDaemon(sim.Cycle(r.CheckEvery), n.checkTick)
		}
	}
}

// checkName qualifies a check with its GPU on a multi-GPU run.
func (s *Simulator) checkName(idx int, name string) string {
	if len(s.nodes) == 1 {
		return name
	}
	return fmt.Sprintf("gpu%d-%s", idx, name)
}

// newChecker builds GPU idx's invariant suite: the driver's full
// consistency walk plus a monotonicity watch on every uint64 field of
// its stats block (built by reflection so new counters are covered
// automatically).
func (s *Simulator) newChecker(idx int) *obs.Checker {
	drv := s.nodes[idx].drv
	c := &obs.Checker{}
	c.Add(s.checkName(idx, "driver-consistency"), drv.CheckConsistencyMidRun)
	v := reflect.ValueOf(drv.Stats()).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		p := f.Addr().Interface().(*uint64)
		c.AddMonotonic(s.checkName(idx, "stats."+t.Field(i).Name), func() uint64 { return *p })
	}
	return c
}

// CheckNow runs every GPU's invariant suite at its current cycle,
// building the suites on first use. Tests use it to validate states
// directly; the periodic sweep panics on what this returns.
func (s *Simulator) CheckNow() error {
	for idx, n := range s.nodes {
		if n.ck == nil {
			n.ck = s.newChecker(idx)
		}
		if err := n.ck.RunAll(uint64(n.eng.Now())); err != nil {
			return err
		}
	}
	return nil
}

// checkTick is the node's periodic invariant sweep, driven by its
// engine daemon.
func (n *node) checkTick() {
	n.checksRun++
	if err := n.ck.RunAll(uint64(n.eng.Now())); err != nil {
		panic(err)
	}
}

// InvariantChecks reports how many periodic invariant sweeps have fired
// across the GPUs (tests assert the checker actually ran).
func (s *Simulator) InvariantChecks() uint64 {
	var sum uint64
	for _, n := range s.nodes {
		sum += n.checksRun
	}
	return sum
}

// observeKernel emits the kernel's span on every observed GPU's kernel
// track.
func (s *Simulator) observeKernel(span KernelSpan) {
	for _, n := range s.nodes {
		if n.tr == nil {
			continue
		}
		n.tr.Emit(obs.Span{
			Name: span.Name, Cat: "kernel", TID: obs.TrackKernel,
			Start: uint64(span.Start), Dur: uint64(span.End - span.Start),
			Value: uint64(span.Iter),
		})
	}
}

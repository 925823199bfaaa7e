package core

import (
	"reflect"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Observe attaches a run's observability instruments to the simulator:
// driver and GPU metric publication, kernel-track tracing, and — when
// r.CheckEvery > 0 — a periodic invariant sweep that validates the
// driver's cross-structure accounting and every stats counter's
// monotonicity, panicking with a cycle-stamped *obs.Violation on the
// first breach. Call before Run; a nil or disabled Run detaches.
func (s *Simulator) Observe(r *obs.Run) {
	s.obsRun = nil
	s.checker = nil
	s.checkEvery = 0
	s.Engine.SetDaemon(0, nil)
	if !r.Enabled() {
		s.Driver.SetObs(nil)
		s.GPU.SetObs(nil)
		return
	}
	s.obsRun = r
	s.Driver.SetObs(r)
	s.GPU.SetObs(r)
	if r.Reg != nil {
		eng := s.Engine
		r.Reg.RegisterProvider(func(e obs.Emitter) {
			e.Counter("sim.cycles", uint64(eng.Now()))
			e.Counter("sim.events_fired", eng.Fired())
		})
	}
	if r.CheckEvery > 0 {
		s.checker = s.newChecker()
		s.checkEvery = r.CheckEvery
		// The sweep rides on the engine's daemon hook: it observes state
		// at real event boundaries and can never extend the run, so
		// cycle counts are identical with and without checking.
		s.Engine.SetDaemon(sim.Cycle(r.CheckEvery), s.checkTick)
	}
}

// newChecker builds the invariant suite: the driver's full consistency
// walk plus a monotonicity watch on every uint64 field of the stats
// block (built by reflection so new counters are covered automatically).
func (s *Simulator) newChecker() *obs.Checker {
	c := &obs.Checker{}
	c.Add("driver-consistency", s.Driver.CheckConsistencyMidRun)
	v := reflect.ValueOf(s.Driver.Stats()).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		p := f.Addr().Interface().(*uint64)
		c.AddMonotonic("stats."+t.Field(i).Name, func() uint64 { return *p })
	}
	return c
}

// CheckNow runs the invariant suite at the current cycle, building it on
// first use. Tests use it to validate states directly; Run's periodic
// tick panics on what this returns.
func (s *Simulator) CheckNow() error {
	if s.checker == nil {
		s.checker = s.newChecker()
	}
	return s.checker.RunAll(uint64(s.Engine.Now()))
}

// checkTick is the periodic invariant sweep, driven by the engine
// daemon.
func (s *Simulator) checkTick() {
	s.checksRun++
	if err := s.checker.RunAll(uint64(s.Engine.Now())); err != nil {
		panic(err)
	}
}

// InvariantChecks reports how many periodic invariant sweeps have fired
// (tests assert the checker actually ran).
func (s *Simulator) InvariantChecks() uint64 { return s.checksRun }

// observeKernel emits the kernel's span on the kernel track.
func (s *Simulator) observeKernel(span KernelSpan) {
	r := s.obsRun
	if r == nil || r.Tr == nil {
		return
	}
	r.Tr.Emit(obs.Span{
		Name: span.Name, Cat: "kernel", TID: obs.TrackKernel,
		Start: uint64(span.Start), Dur: uint64(span.End - span.Start),
		Value: uint64(span.Iter),
	})
}


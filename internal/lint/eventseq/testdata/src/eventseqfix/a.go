// Fixture for the eventseq analyzer: underflow-prone cycle math and
// back-to-back reuse of one event closure or handler.
package eventseqfix

import "sim"

func badUnderflow(e *sim.Engine, lat sim.Cycle) {
	e.At(e.Now()-lat, func() {}) // want `unsigned subtraction`
}

func badUnderflowNested(e *sim.Engine, lat sim.Cycle) {
	e.ScheduleAfter((e.Now()-lat)/2, func() {}) // want `unsigned subtraction`
}

type warpStep struct{}

func (*warpStep) Fire() {}

func badUnderflowHandler(e *sim.Engine, lat sim.Cycle, h sim.Handler) {
	e.Schedule(e.Now()-lat, h) // want `unsigned subtraction`
}

func badHandlerReuse(e *sim.Engine, h sim.Handler) {
	e.Schedule(1, h)
	e.Schedule(2, h) // want `scheduled twice`
}

func handlerAdditiveOK(e *sim.Engine, lat sim.Cycle, w *warpStep) {
	e.Schedule(e.Now()+lat, w)
}

func additiveOK(e *sim.Engine, lat sim.Cycle) {
	e.At(e.Now()+lat, func() {})
	e.After(lat, func() {})
}

func constOK(e *sim.Engine) {
	const horizon = 10
	e.At(horizon-1, func() {})
}

func badReuse(e *sim.Engine) {
	step := func() {}
	e.After(1, step)
	e.After(2, step) // want `scheduled twice`
}

func rebindOK(e *sim.Engine) {
	step := func() {}
	e.After(1, step)
	step = func() {}
	e.After(2, step)
}

func branchesOK(e *sim.Engine, fast bool) {
	step := func() {}
	if fast {
		e.After(1, step)
	} else {
		e.After(2, step)
	}
}

func tick() {}

func packageFuncOK(e *sim.Engine) {
	// Stateless package-level functions may be scheduled repeatedly.
	e.After(1, tick)
	e.After(2, tick)
}

func suppressed(e *sim.Engine, lat sim.Cycle) {
	e.At(e.Now()-lat, func() {}) //simlint:allow eventseq -- fixture: suppression must silence the finding
}

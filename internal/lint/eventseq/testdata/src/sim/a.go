// Fixture sim package: the minimal Engine shape the eventseq analyzer
// recognizes (package named sim, type named Engine, schedule methods).
package sim

type Cycle = uint64

type Event func()

type Handler interface{ Fire() }

type Engine struct{ now Cycle }

func (e *Engine) Now() Cycle { return e.now }

func (e *Engine) At(c Cycle, fn Event)            {}
func (e *Engine) After(d Cycle, fn Event)         {}
func (e *Engine) Schedule(c Cycle, h Handler)     {}
func (e *Engine) ScheduleAfter(d Cycle, fn Event) {}

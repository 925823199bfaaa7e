package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at cycle %d, want 0", got)
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported true")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle events fired out of FIFO order: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	e.At(100, func() {
		hits = append(hits, e.Now())
		e.After(50, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 100 || hits[1] != 150 {
		t.Fatalf("hits = %v, want [100 150]", hits)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// A nil event panics at scheduling time on every entry point and leaves
// nothing queued. At must check before adapting: a nil func inside the
// adapter would be a non-nil Handler and panic only when fired.
func TestEngineNilEventPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"At", func(e *Engine) { e.At(1, nil) }},
		{"After", func(e *Engine) { e.After(1, nil) }},
		{"Schedule", func(e *Engine) { e.Schedule(1, nil) }},
	} {
		e := NewEngine()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nil event did not panic", tc.name)
				}
			}()
			tc.schedule(e)
		}()
		if e.Pending() != 0 {
			t.Errorf("%s: nil event left %d events pending", tc.name, e.Pending())
		}
	}
}

// AdvanceTo is barrier alignment: it only ever runs on a drained
// engine, moves the clock forward (never back), and later events fire
// in order from the new clock — also when the jump spans several
// windows of the timing wheel.
func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.At(30, func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTo with an event pending did not panic")
			}
		}()
		e.AdvanceTo(40)
	}()
	e.Run()
	e.AdvanceTo(20)
	if e.Now() != 30 {
		t.Fatalf("AdvanceTo(20) at cycle 30 moved the clock to %d", e.Now())
	}
	barrier := Cycle(3*wheelSize + 5)
	e.AdvanceTo(barrier)
	if e.Now() != barrier {
		t.Fatalf("Now = %d, want the barrier %d", e.Now(), barrier)
	}
	var at []Cycle
	record := func() { at = append(at, e.Now()) }
	e.At(barrier+wheelSize+1, record)
	e.At(barrier+1, record)
	e.At(barrier, record)
	e.Run()
	want := []Cycle{barrier, barrier + 1, barrier + wheelSize + 1}
	if !slices.Equal(at, want) {
		t.Fatalf("events fired at %v, want %v", at, want)
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine()
	e.SetEventBudget(3)
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Error("exceeding event budget did not panic")
		}
	}()
	e.Run()
}

// Property: for any set of scheduled delays, events fire in nondecreasing
// time order and the engine ends at the maximum timestamp.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Cycle
		ok := true
		var max Cycle
		for _, d := range delays {
			at := Cycle(d)
			if at > max {
				max = at
			}
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		end := e.Run()
		if len(delays) == 0 {
			return end == 0
		}
		return ok && end == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// A panic inside one engine's drain must not kill the process from a
// worker goroutine: the other engines finish the round, and Drain
// re-panics the value from the lowest panicking engine index on the
// caller's goroutine, leaving no goroutine behind. One worker drains
// every engine on the caller and starts no goroutine at all.
func TestDrainPanicReachesCaller(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, workers := range []int{1, 2} {
		baseline := runtime.NumGoroutine()
		engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
		inDrain := -1
		engines[0].At(10, func() {})
		engines[0].At(20, func() { inDrain = runtime.NumGoroutine() })
		engines[1].At(5, func() { panic(sentinel) })
		engines[2].At(1, func() { panic("later engine") })
		co := NewCoordinator(engines, workers)
		got := func() (p any) {
			defer func() { p = recover() }()
			co.Drain()
			return nil
		}()
		if got != sentinel {
			t.Fatalf("%d workers: Drain panicked with %v, want the sentinel from engine 1", workers, got)
		}
		// Engine 0 ran to empty, and engine 2 ran into its own panic even
		// after engine 1 (drained before it on one worker) had panicked.
		if engines[0].Now() != 20 || engines[0].Pending() != 0 || engines[2].Now() != 1 {
			t.Fatalf("%d workers: engines did not finish the round: engine 0 at %d with %d pending, engine 2 at %d",
				workers, engines[0].Now(), engines[0].Pending(), engines[2].Now())
		}
		if workers == 1 && inDrain != baseline {
			t.Fatalf("one worker: %d goroutines during Drain, baseline %d", inDrain, baseline)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d goroutines after Drain, baseline %d", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// A clean round leaves every engine empty with its clock on the barrier,
// the latest engine clock, which Drain returns — also for an engine
// that had nothing to run.
func TestDrainAlignsClocks(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
		engines[0].At(10, func() {})
		engines[1].At(40, func() {})
		co := NewCoordinator(engines, workers)
		if got := co.Drain(); got != 40 {
			t.Fatalf("%d workers: Drain returned %d, want 40", workers, got)
		}
		for i, e := range engines {
			if e.Now() != 40 || e.Pending() != 0 {
				t.Fatalf("%d workers: engine %d at %d with %d pending, want 40 and 0", workers, i, e.Now(), e.Pending())
			}
		}
	}
}

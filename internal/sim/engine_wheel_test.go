package sim

import "testing"

// TestEngineOverflowRefillOrder drives events across the wheel/overflow
// boundary: bursts scheduled beyond the window must refill into buckets
// in exact (at, seq) order as the clock approaches, interleaved with
// direct pushes at the same cycles.
func TestEngineOverflowRefillOrder(t *testing.T) {
	eng := NewEngine()
	var order []int
	record := func(i int) func() { return func() { order = append(order, i) } }
	// Far events: beyond the window, same target cycle, scheduled first.
	far := Cycle(3 * wheelSize)
	eng.At(far, record(0))
	eng.At(far+1, record(2))
	eng.At(far, record(1))
	// A near event whose callback schedules directly at the (by then
	// in-window) far cycle — sequenced after the overflow entries.
	eng.At(far-wheelSize/2, func() { eng.At(far, record(3)) })
	eng.Run()
	// Overflow entries for cycle far fire in seq order (0 then 1), then
	// the direct push (3)... which was sequenced later but at the same
	// cycle, so it fires after 0 and 1 and before the far+1 event? No:
	// (at, seq) order puts it at (far, seq=5) — after (far, 1) and
	// (far, 3), before (far+1, 2).
	want := []int{0, 1, 3, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

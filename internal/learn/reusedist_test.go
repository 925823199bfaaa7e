package learn

import "testing"

func TestReuseEstimatorBasicDistances(t *testing.T) {
	e := NewReuseEstimator(4)
	if _, ok := e.Touch(7); ok {
		t.Fatal("first touch reported a distance")
	}
	if d, ok := e.Touch(7); !ok || d != 1 {
		t.Fatalf("immediate re-touch = (%d, %v), want (1, true)", d, ok)
	}
	e.Touch(8)
	e.Touch(9)
	// History (newest last): 7 7 8 9. Touch 7 again: previous touch is 3
	// ticks back, still inside the 4-touch window.
	if d, ok := e.Touch(7); !ok || d != 3 {
		t.Fatalf("windowed re-touch = (%d, %v), want (3, true)", d, ok)
	}
}

func TestReuseEstimatorWindowEviction(t *testing.T) {
	e := NewReuseEstimator(3)
	e.Touch(1)
	e.Touch(2)
	e.Touch(3)
	e.Touch(4) // pushes 1 out of the 3-touch window
	if d, ok := e.Touch(1); ok {
		t.Fatalf("evicted block still visible at distance %d", d)
	}
	// A distance of exactly the capacity is still inside the window.
	e2 := NewReuseEstimator(3)
	e2.Touch(1)
	e2.Touch(2)
	e2.Touch(3)
	if d, ok := e2.Touch(1); !ok || d != 3 {
		t.Fatalf("boundary re-touch = (%d, %v), want (3, true)", d, ok)
	}
}

func TestReuseEstimatorNearestOccurrenceWins(t *testing.T) {
	e := NewReuseEstimator(8)
	e.Touch(5)
	e.Touch(6)
	e.Touch(5)
	e.Touch(7)
	if d, ok := e.Touch(5); !ok || d != 2 {
		t.Fatalf("distance to nearest occurrence = (%d, %v), want (2, true)", d, ok)
	}
}

func TestReuseEstimatorBlockZeroIsNotPhantom(t *testing.T) {
	// The ring backing array is zero-valued; block 0 must not appear
	// touched before it actually is.
	e := NewReuseEstimator(4)
	if _, ok := e.Touch(0); ok {
		t.Fatal("fresh estimator reported a distance for block 0")
	}
	e.Touch(1)
	if d, ok := e.Touch(0); !ok || d != 2 {
		t.Fatalf("block 0 re-touch = (%d, %v), want (2, true)", d, ok)
	}
}

func TestReuseEstimatorAccessors(t *testing.T) {
	e := NewReuseEstimator(16)
	if len(e.ring) != 16 {
		t.Fatalf("capacity = %d", len(e.ring))
	}
	e.Touch(1)
	e.Touch(2)
	if e.tick != 2 {
		t.Fatalf("ticks = %d", e.tick)
	}
}

func TestReuseEstimatorRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewReuseEstimator(0)
}

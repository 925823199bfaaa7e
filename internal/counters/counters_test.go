package counters

import (
	"testing"
	"testing/quick"
)

func TestFieldWidths(t *testing.T) {
	if AccessBits+RoundTripBits != 32 {
		t.Fatalf("register is %d bits, want 32", AccessBits+RoundTripBits)
	}
	if MaxAccess != 1<<27-1 {
		t.Fatalf("MaxAccess = %d", MaxAccess)
	}
	if MaxRoundTrip != 31 {
		t.Fatalf("MaxRoundTrip = %d", MaxRoundTrip)
	}
}

func TestAccessCounting(t *testing.T) {
	f := New()
	for i := 1; i <= 5; i++ {
		if got := f.Access(7); got != uint64(i) {
			t.Fatalf("Access #%d returned %d", i, got)
		}
	}
	if f.Count(7) != 5 {
		t.Fatalf("Count = %d, want 5", f.Count(7))
	}
	if f.Count(8) != 0 {
		t.Fatal("untouched block has nonzero count")
	}
	if f.TotalAccesses() != 5 {
		t.Fatalf("TotalAccesses = %d, want 5", f.TotalAccesses())
	}
}

func TestRoundTrips(t *testing.T) {
	f := New()
	f.NoteEviction(3)
	f.NoteEviction(3)
	if f.RoundTrips(3) != 2 {
		t.Fatalf("RoundTrips = %d, want 2", f.RoundTrips(3))
	}
	if f.RoundTrips(4) != 0 {
		t.Fatal("untouched block has round trips")
	}
}

func TestAccessSaturationHalvesAll(t *testing.T) {
	f := New()
	// Force block 1 to the cap, give block 2 a known count.
	f.get(1).access = MaxAccess
	f.get(2).access = 100
	f.Access(1) // triggers halving, then increments
	if got := f.Count(1); got != MaxAccess/2+1 {
		t.Fatalf("saturated block count = %d, want %d", got, MaxAccess/2+1)
	}
	if got := f.Count(2); got != 50 {
		t.Fatalf("bystander block count = %d, want 50 (halved)", got)
	}
	a, tr := f.Halvings()
	if a != 1 || tr != 0 {
		t.Fatalf("halvings = %d,%d want 1,0", a, tr)
	}
}

func TestTripSaturationHalvesAll(t *testing.T) {
	f := New()
	f.get(1).trips = MaxRoundTrip
	f.get(2).trips = 10
	f.NoteEviction(1)
	if got := f.RoundTrips(1); got != MaxRoundTrip/2+1 {
		t.Fatalf("saturated trips = %d, want %d", got, MaxRoundTrip/2+1)
	}
	if got := f.RoundTrips(2); got != 5 {
		t.Fatalf("bystander trips = %d, want 5", got)
	}
}

// Property: halving preserves the relative order of access counts.
func TestHalvingPreservesOrderProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		a %= MaxAccess
		b %= MaxAccess
		cf := New()
		cf.get(1).access = a
		cf.get(2).access = b
		cf.get(3).access = MaxAccess
		cf.Access(3) // halve sweep
		x, y := cf.Count(1), cf.Count(2)
		switch {
		case a > b:
			return x >= y
		case a < b:
			return x <= y
		default:
			return x == y
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: access counts never exceed the 27-bit field and trips never
// exceed 5 bits, no matter the access sequence.
func TestFieldBoundsProperty(t *testing.T) {
	f := func(nAccess uint16, nEvict uint8) bool {
		cf := New()
		cf.get(0).access = MaxAccess - 3 // start near the cliff
		cf.get(0).trips = MaxRoundTrip - 1
		for i := 0; i < int(nAccess); i++ {
			cf.Access(0)
		}
		for i := 0; i < int(nEvict); i++ {
			cf.NoteEviction(0)
		}
		return cf.Count(0) <= MaxAccess && cf.RoundTrips(0) <= MaxRoundTrip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumCounts(t *testing.T) {
	f := New()
	f.get(10).access = 3
	f.get(11).access = 4
	f.get(13).access = 100 // outside range
	if got := f.SumCounts(10, 3); got != 7 {
		t.Fatalf("SumCounts = %d, want 7", got)
	}
}

func TestMaxRoundTrips(t *testing.T) {
	f := New()
	f.get(20).trips = 2
	f.get(22).trips = 7
	if got := f.MaxRoundTrips(20, 4); got != 7 {
		t.Fatalf("MaxRoundTrips = %d, want 7", got)
	}
	if got := f.MaxRoundTrips(30, 4); got != 0 {
		t.Fatalf("MaxRoundTrips over empty range = %d, want 0", got)
	}
}

func TestTracked(t *testing.T) {
	f := New()
	f.Access(1)
	f.Access(2)
	f.Access(1)
	if f.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", f.Tracked())
	}
}

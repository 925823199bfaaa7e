package devmem

import "testing"

func TestAccountsChargeRelease(t *testing.T) {
	a := NewAccounts(2)
	a.Charge(0, 6)
	a.Charge(1, 2)
	a.Release(0, 4, true)
	a.Release(1, 1, false)
	if a.resident[0] != 2 || a.resident[1] != 1 {
		t.Fatalf("resident = %d,%d", a.resident[0], a.resident[1])
	}
	if a.Evicted(0) != 4 || a.Evicted(1) != 0 {
		t.Fatalf("evicted = %d,%d", a.Evicted(0), a.Evicted(1))
	}
	if a.Peak(0) != 6 || a.Peak(1) != 2 {
		t.Fatalf("peaks = %d,%d", a.Peak(0), a.Peak(1))
	}
}

func TestAccountsOverReleasePanics(t *testing.T) {
	a := NewAccounts(1)
	a.Charge(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	a.Release(0, 2, false)
}

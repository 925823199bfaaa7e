package devmem

import "testing"

func TestAccountsChargeReleaseShare(t *testing.T) {
	a := NewAccounts(2)
	if a.Tenants() != 2 {
		t.Fatalf("tenants = %d", a.Tenants())
	}
	a.Charge(0, 6)
	a.Charge(1, 2)
	if got := a.Share(0); got != 0.75 {
		t.Fatalf("share(0) = %v, want 0.75", got)
	}
	a.Release(0, 4, true)
	a.Release(1, 1, false)
	if a.Resident(0) != 2 || a.Resident(1) != 1 {
		t.Fatalf("resident = %d,%d", a.Resident(0), a.Resident(1))
	}
	if a.Evicted(0) != 4 || a.Evicted(1) != 0 {
		t.Fatalf("evicted = %d,%d", a.Evicted(0), a.Evicted(1))
	}
	if a.Peak(0) != 6 || a.Peak(1) != 2 {
		t.Fatalf("peaks = %d,%d", a.Peak(0), a.Peak(1))
	}
	a.Release(0, 2, false)
	a.Release(1, 1, false)
	if got := a.Share(0); got != 0 {
		t.Fatalf("share of empty accounts = %v", got)
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

package uvm

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

func TestAdvicePinHostNeverMigrates(t *testing.T) {
	r := newRig(t, nil, 4<<20) // Disabled policy: would normally migrate at first touch
	r.d.Advise(r.a, AdvicePinHost)
	for i := 0; i < 50; i++ {
		r.syncAccess(t, r.a.Base, i%2 == 0)
	}
	st := r.d.Stats()
	if st.MigratedPages != 0 || st.FarFaults != 0 {
		t.Fatalf("pinned allocation migrated: %s", st.String())
	}
	if st.RemoteAccesses() != 50 {
		t.Fatalf("remote = %d, want 50", st.RemoteAccesses())
	}
}

func TestAdvicePreferHostDelaysMigration(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.StaticThreshold = 4 }, 4<<20)
	r.d.Advise(r.a, AdvicePreferHost)
	// Three reads remote, fourth crosses ts and migrates.
	for i := 0; i < 3; i++ {
		r.syncAccess(t, r.a.Base, false)
	}
	if st := r.d.Stats(); st.RemoteReads != 3 || st.FarFaults != 0 {
		t.Fatalf("before threshold: %s", st.String())
	}
	r.syncAccess(t, r.a.Base, false)
	if st := r.d.Stats(); st.FarFaults != 1 {
		t.Fatalf("after threshold: %s", st.String())
	}
}

func TestAdvicePreferHostWriteMigrates(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		// Even under Adaptive (which normally keeps writes remote), the
		// soft-pin advice uses Volta semantics: writes migrate.
		*c = c.WithPolicy(config.PolicyAdaptive)
		c.StaticThreshold = 1 << 20
	}, 4<<20)
	r.d.Advise(r.a, AdvicePreferHost)
	r.syncAccess(t, r.a.Base, true)
	if st := r.d.Stats(); st.FarFaults != 1 || st.RemoteWrites != 0 {
		t.Fatalf("write under PreferHost: %s", st.String())
	}
}

func TestAdviceScopedToAllocation(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	b := r.space.Alloc("other", 1<<20, false)
	r.d.Advise(r.a, AdvicePinHost)
	// The unadvised allocation migrates normally.
	var fired bool
	r.d.Access(b.Base, false, func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("access never completed")
	}
	if r.d.Stats().MigratedPages == 0 {
		t.Fatal("unadvised allocation did not migrate")
	}
	if _, ok := r.d.TryFastAccess(b.Base, false); !ok {
		t.Fatal("unadvised allocation not resident")
	}
	if _, ok := r.d.TryFastAccess(r.a.Base, false); ok {
		t.Fatal("pinned allocation resident")
	}
}

func TestAdviseAfterTouchPanics(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.syncAccess(t, r.a.Base, false)
	defer func() {
		if recover() == nil {
			t.Error("advising touched allocation did not panic")
		}
	}()
	r.d.Advise(r.a, AdvicePinHost)
}

func TestAdviseValidation(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	for _, fn := range []func(){
		func() { r.d.Advise(nil, AdvicePinHost) },
		func() { r.d.Advise(r.a, Advice(99)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Advise did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestAdviceStrings(t *testing.T) {
	if AdviceNone.String() != "None" || AdvicePreferHost.String() != "PreferHost" || AdvicePinHost.String() != "PinHost" {
		t.Error("advice names wrong")
	}
}

func TestPinnedAllocationNeverConsumesDeviceMemory(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.DeviceMemBytes = 4 << 20 }, 12<<20)
	r.d.Advise(r.a, AdvicePinHost)
	for b := uint64(0); b < 3*memunits.BlocksPerChunk; b++ {
		r.syncAccess(t, r.a.Base+b*memunits.BlockSize, false)
	}
	if r.d.mem.AllocatedPages() != 0 {
		t.Fatalf("pinned run left %d resident pages", r.d.mem.AllocatedPages())
	}
	if r.d.mem.Oversubscribed() {
		t.Fatal("pinned run latched oversubscription")
	}
}

package interconnect

import (
	"testing"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

func newCXL(eng *sim.Engine) *CXL {
	// 8 bytes/cycle, 50 cycle latency, default 64B flits.
	return NewCXL(eng, 8, 50, 0)
}

func TestCXLFlitRounding(t *testing.T) {
	eng := sim.NewEngine()
	c := newCXL(eng)
	// 100B payload -> 2 flits + 1 header flit = 192 wire bytes ->
	// 192/8 = 24 cycles occupancy + 50 latency = 74.
	if finish := c.Transfer(HostToDevice, 100, nil); finish != 74 {
		t.Fatalf("finish = %d, want 74", finish)
	}
	st := c.Stats(HostToDevice)
	if st.Transfers != 1 || st.Bytes != 100 || st.WireBytes != 192 || st.BusyCycles != 24 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCXLRemoteAccessSameCostModel(t *testing.T) {
	eng := sim.NewEngine()
	c := newCXL(eng)
	// A 64B load is exactly one flit + header: 128 wire bytes -> 16
	// cycles + 50 latency = 66. RemoteAccess and Transfer agree.
	if finish := c.RemoteAccess(DeviceToHost, 64, nil); finish != 66 {
		t.Fatalf("remote access finish = %d, want 66", finish)
	}
	eng2 := sim.NewEngine()
	c2 := newCXL(eng2)
	if finish := c2.Transfer(DeviceToHost, 64, nil); finish != 66 {
		t.Fatalf("transfer finish = %d, want 66", finish)
	}
}

func TestCXLSerializationAndDuplex(t *testing.T) {
	eng := sim.NewEngine()
	c := newCXL(eng)
	f1 := c.Transfer(HostToDevice, 64, nil) // wire 0..16, done 66
	f2 := c.Transfer(HostToDevice, 64, nil) // wire 16..32, done 82
	f3 := c.Transfer(DeviceToHost, 64, nil) // independent wire: done 66
	if f1 != 66 || f2 != 82 || f3 != 66 {
		t.Fatalf("finishes = %d,%d,%d want 66,82,66", f1, f2, f3)
	}
	if c.FreeAt(HostToDevice) != 32 {
		t.Fatalf("FreeAt = %d, want 32", c.FreeAt(HostToDevice))
	}
}

func TestCXLDoneCallbackFires(t *testing.T) {
	eng := sim.NewEngine()
	c := newCXL(eng)
	var doneAt sim.Cycle
	c.Transfer(HostToDevice, 64, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 66 {
		t.Fatalf("done fired at %d, want 66", doneAt)
	}
}

func TestCXLPanicsMirrorLink(t *testing.T) {
	eng := sim.NewEngine()
	c := newCXL(eng)
	mustPanic(t, "zero-byte transfer", func() { c.Transfer(HostToDevice, 0, nil) })
	mustPanic(t, "zero-byte remote access", func() { c.RemoteAccess(HostToDevice, 0, nil) })
	mustPanic(t, "non-positive bandwidth", func() { NewCXL(eng, 0, 1, 0) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPublishConnMetrics(t *testing.T) {
	eng := sim.NewEngine()
	pcie := newLink(eng)
	cxl := newCXL(eng)
	cxl.Transfer(HostToDevice, 64, nil)
	pcie.Transfer(DeviceToHost, 4096, nil)
	reg := obs.NewRegistry()
	PublishConnMetrics(reg, "link.cxl0", cxl)
	pcie.PublishMetrics(reg)
	snap := reg.Collect()
	if got := snap.Counter("link.cxl0.h2d.bytes"); got != 64 {
		t.Fatalf("link.cxl0.h2d.bytes = %d, want 64", got)
	}
	if got := snap.Counter("link.cxl0.h2d.wire_bytes"); got != 128 {
		t.Fatalf("link.cxl0.h2d.wire_bytes = %d, want one payload and one header flit", got)
	}
	if got := snap.Counter("pcie.d2h.bytes"); got != 4096 {
		t.Fatalf("pcie.d2h.bytes = %d, want 4096", got)
	}
	if got := snap.Counter("pcie.h2d.transfers"); got != 0 {
		t.Fatalf("pcie.h2d.transfers = %d, want 0", got)
	}
	if _, ok := snap.Gauges["pcie.d2h.utilization"]; !ok {
		t.Fatalf("no pcie.d2h.utilization gauge in %v", snap.Gauges)
	}
}

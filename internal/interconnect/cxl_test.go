package interconnect

import (
	"strings"
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

func TestFabricResolvesAndOrders(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric()
	pcie := newLink(eng)
	cxl := newCXL(eng)
	f.Add("pcie0", pcie)
	f.Add("cxl0", cxl)
	if f.Len() != 2 {
		t.Fatalf("len = %d", f.Len())
	}
	if got := f.Names(); len(got) != 2 || got[0] != "cxl0" || got[1] != "pcie0" {
		t.Fatalf("names = %v, want sorted [cxl0 pcie0]", got)
	}
	if c, ok := f.Link("cxl0"); !ok || c != Conn(cxl) {
		t.Fatal("Link(cxl0) did not resolve")
	}
	if _, ok := f.Link("nvlink9"); ok {
		t.Fatal("Link resolved an unknown name")
	}
	if f.MustLink("pcie0") != Conn(pcie) {
		t.Fatal("MustLink(pcie0) did not resolve")
	}
}

func TestFabricPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric()
	f.Add("a", newLink(eng))
	mustPanic(t, "duplicate name", func() { f.Add("a", newCXL(eng)) })
	mustPanic(t, "empty name", func() { f.Add("", newLink(eng)) })
	mustPanic(t, "nil link", func() { f.Add("b", nil) })
}

func TestFabricPublishMetrics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric()
	f.Add("pcie0", newLink(eng))
	f.Add("cxl0", newCXL(eng))
	f.MustLink("cxl0").Transfer(HostToDevice, 64, nil)
	reg := obs.NewRegistry()
	f.PublishMetrics(reg)
	snap := reg.Collect()
	if got := snap.Counter("link.cxl0.h2d.bytes"); got != 64 {
		t.Fatalf("link.cxl0.h2d.bytes = %d, want 64", got)
	}
	var sawPCIe bool
	for name := range snap.Counters {
		if strings.HasPrefix(name, "link.pcie0.") {
			sawPCIe = true
		}
	}
	if !sawPCIe {
		t.Fatalf("no link.pcie0.* counters in %v", snap.Counters)
	}
}

package interconnect

import (
	"testing"
	"testing/quick"

	"uvmsim/internal/sim"
)

func newLink(eng *sim.Engine) *Link {
	// 10 bytes/cycle, 100 cycle latency, 24B headers: round numbers for
	// hand-checked arithmetic.
	return New(eng, 10, 100, 24, 1)
}

func TestTransferTiming(t *testing.T) {
	eng := sim.NewEngine()
	l := newLink(eng)
	var doneAt sim.Cycle
	finish := l.Transfer(HostToDevice, 1000, func() { doneAt = eng.Now() })
	// occupancy = 1000/10 = 100 cycles, + 100 latency = 200.
	if finish != 200 {
		t.Fatalf("finish = %d, want 200", finish)
	}
	eng.Run()
	if doneAt != 200 {
		t.Fatalf("done fired at %d, want 200", doneAt)
	}
}

func TestTransferSerialization(t *testing.T) {
	eng := sim.NewEngine()
	l := newLink(eng)
	f1 := l.Transfer(HostToDevice, 1000, nil) // wire busy 0..100, done 200
	f2 := l.Transfer(HostToDevice, 1000, nil) // wire busy 100..200, done 300
	if f1 != 200 || f2 != 300 {
		t.Fatalf("finishes = %d,%d want 200,300", f1, f2)
	}
	if fa := l.chans[HostToDevice].freeAt; fa != 200 {
		t.Fatalf("freeAt = %d, want 200", fa)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	eng := sim.NewEngine()
	l := newLink(eng)
	f1 := l.Transfer(HostToDevice, 1000, nil)
	f2 := l.Transfer(DeviceToHost, 1000, nil)
	if f1 != 200 || f2 != 200 {
		t.Fatalf("duplex transfers serialized: %d,%d want 200,200", f1, f2)
	}
}

func TestRemoteAccessHeaderOverhead(t *testing.T) {
	eng := sim.NewEngine()
	l := newLink(eng)
	// 128B payload + 24B header = 152B -> ceil(152/10)=16 cycles + 100.
	finish := l.RemoteAccess(DeviceToHost, 128, nil)
	if finish != 116 {
		t.Fatalf("finish = %d, want 116", finish)
	}
	st := l.Stats(DeviceToHost)
	if st.Bytes != 128 || st.WireBytes != 152 {
		t.Fatalf("stats = %+v, want payload 128 wire 152", st)
	}
}

func TestBulkBeatsFragmentedBandwidth(t *testing.T) {
	// Moving 64KB as one burst must take far less wire time than moving it
	// as 512 x 128B remote transactions — the core trade-off of the paper.
	engBulk := sim.NewEngine()
	bulk := newLink(engBulk)
	bulk.Transfer(HostToDevice, 64<<10, nil)
	bulkBusy := bulk.Stats(HostToDevice).BusyCycles

	engFrag := sim.NewEngine()
	frag := newLink(engFrag)
	for i := 0; i < 512; i++ {
		frag.RemoteAccess(HostToDevice, 128, nil)
	}
	fragBusy := frag.Stats(HostToDevice).BusyCycles
	if fragBusy <= bulkBusy {
		t.Fatalf("fragmented busy %d not worse than bulk busy %d", fragBusy, bulkBusy)
	}
}

func TestZeroByteTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-byte transfer did not panic")
		}
	}()
	newLink(sim.NewEngine()).Transfer(HostToDevice, 0, nil)
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	l := newLink(eng)
	l.Transfer(HostToDevice, 1000, func() {}) // 100 busy cycles
	eng.Run()                                 // now = 200
	got := l.Utilization(HostToDevice)
	if got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if l.Utilization(DeviceToHost) != 0 {
		t.Fatal("idle direction shows utilization")
	}
}

// Property: transfers on one channel never overlap and complete in issue
// order; total busy time equals the sum of individual occupancies.
func TestSerializationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		l := newLink(eng)
		var lastFinish sim.Cycle
		var wantBusy uint64
		for _, s := range sizes {
			n := uint64(s)%4096 + 1
			fin := l.Transfer(HostToDevice, n, nil)
			if fin < lastFinish {
				return false
			}
			lastFinish = fin
			occ := (n + 9) / 10
			if occ == 0 {
				occ = 1
			}
			wantBusy += occ
		}
		return l.Stats(HostToDevice).BusyCycles == wantBusy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Error("direction names wrong")
	}
}

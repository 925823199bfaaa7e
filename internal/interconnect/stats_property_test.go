package interconnect

import (
	"testing"

	"uvmsim/internal/learn"
	"uvmsim/internal/sim"
)

// statsModel is an independent reference accounting of what one
// directional channel should have recorded: it re-derives wire bytes
// and occupancy from first principles (the link's published cost
// model) and tracks the busy intervals the engine should observe.
type statsModel struct {
	bytesPerCycle float64
	latency       sim.Cycle
	freeAt        sim.Cycle
	want          ChannelStats
}

func (m *statsModel) occupancy(wire uint64) sim.Cycle {
	cycles := sim.Cycle(float64(wire) / m.bytesPerCycle)
	if float64(cycles)*m.bytesPerCycle < float64(wire) {
		cycles++
	}
	if cycles == 0 {
		cycles = 1
	}
	return cycles
}

// note records one transfer initiated at cycle now and returns the
// completion cycle the link must report.
func (m *statsModel) note(now sim.Cycle, payload, wire uint64) sim.Cycle {
	start := now
	if m.freeAt > start {
		start = m.freeAt
	}
	occ := m.occupancy(wire)
	m.freeAt = start + occ
	m.want.Transfers++
	m.want.Bytes += payload
	m.want.WireBytes += wire
	m.want.BusyCycles += uint64(occ)
	return m.freeAt + m.latency
}

// TestChannelStatsSumToOccupancyProperty drives both link types with
// randomized transfer sequences (sizes, directions, bulk vs remote,
// idle gaps) and checks that per-direction ChannelStats exactly match
// an independently maintained reference model: transfer and byte
// counts sum, busy cycles equal the summed wire occupancies, and the
// wire-busy intervals agree with what the engine observes (freeAt and
// completion cycles). This is the conservation law the utilization
// metrics lean on.
func TestChannelStatsSumToOccupancyProperty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		rng := learn.NewRNG(seed)

		eng := sim.NewEngine()
		pcie := New(eng, 10, 100, 24, 3)
		cxl := NewCXL(eng, 8, 50, 0)

		type linkCase struct {
			name  string
			conn  Conn
			chans *[2]channel
			// model re-derives the wire bytes for a payload under the
			// link's cost model for bulk and remote transfers.
			bulkWire   func(payload uint64) uint64
			remoteWire func(payload uint64) uint64
			models     [2]*statsModel
		}
		cxlWire := func(payload uint64) uint64 {
			flits := (payload + DefaultFlitBytes - 1) / DefaultFlitBytes
			return (flits + 1) * DefaultFlitBytes
		}
		cases := []*linkCase{
			{
				name: "pcie", conn: pcie, chans: &pcie.chans,
				bulkWire:   func(p uint64) uint64 { return p },
				remoteWire: func(p uint64) uint64 { return uint64(float64(p+24) * 3) },
				models: [2]*statsModel{
					{bytesPerCycle: 10, latency: 100},
					{bytesPerCycle: 10, latency: 100},
				},
			},
			{
				name: "cxl", conn: cxl, chans: &cxl.chans,
				bulkWire:   cxlWire,
				remoteWire: cxlWire,
				models: [2]*statsModel{
					{bytesPerCycle: 8, latency: 50},
					{bytesPerCycle: 8, latency: 50},
				},
			},
		}

		pending := 0
		for i := 0; i < 400; i++ {
			lc := cases[rng.Intn(2)]
			dir := Direction(rng.Intn(2))
			m := lc.models[dir]
			var got, want sim.Cycle
			if rng.Intn(3) == 0 {
				payload := uint64(1 + rng.Intn(128)) // sector-sized
				want = m.note(eng.Now(), payload, lc.remoteWire(payload))
				pending++
				got = lc.conn.RemoteAccess(dir, payload, func() { pending-- })
			} else {
				payload := uint64(1 + rng.Intn(1<<16)) // up to 64KB bulk
				want = m.note(eng.Now(), payload, lc.bulkWire(payload))
				pending++
				got = lc.conn.Transfer(dir, payload, func() { pending-- })
			}
			if got != want {
				t.Fatalf("seed %d %s: completion = %d, want %d", seed, lc.name, got, want)
			}
			if fa := lc.chans[dir].freeAt; fa != m.freeAt {
				t.Fatalf("seed %d %s: freeAt = %d, model says %d", seed, lc.name, fa, m.freeAt)
			}
			// Occasionally let simulated time advance so transfers start
			// against a moving engine clock, not always a contended wire.
			if rng.Intn(4) == 0 {
				eng.At(eng.Now()+sim.Cycle(1+rng.Intn(500)), func() {})
				eng.Run()
			}
		}
		eng.Run()
		if pending != 0 {
			t.Fatalf("seed %d: %d completion callbacks never fired", seed, pending)
		}

		for _, lc := range cases {
			for _, dir := range []Direction{HostToDevice, DeviceToHost} {
				got, want := lc.conn.Stats(dir), lc.models[dir].want
				if got != want {
					t.Fatalf("seed %d %s %s: stats = %+v, model = %+v", seed, lc.name, dir, got, want)
				}
				// Busy cycles can never exceed the span the wire has been
				// in use for, and utilization must agree with the ratio.
				if got.BusyCycles > uint64(lc.chans[dir].freeAt) {
					t.Fatalf("seed %d %s %s: busy %d exceeds freeAt %d", seed, lc.name, dir, got.BusyCycles, lc.chans[dir].freeAt)
				}
				wantUtil := float64(got.BusyCycles) / float64(eng.Now())
				if u := lc.conn.Utilization(dir); u != wantUtil {
					t.Fatalf("seed %d %s %s: utilization = %v, want %v", seed, lc.name, dir, u, wantUtil)
				}
			}
		}
	}
}

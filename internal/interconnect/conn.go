package interconnect

import (
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Conn is the common interface of every interconnect in the model: the
// host PCIe link and the CXL port fronting the pooled tier both
// implement it, so one metrics publisher serves both.
//
// All implementations share the channel contract: two independent
// directional wires, each serializing its transfers, with completion one
// initiation latency after wire occupancy ends.
type Conn interface {
	// Transfer schedules a bulk DMA of payload bytes and invokes done
	// (if non-nil) when the data has fully landed, returning the
	// completion cycle.
	Transfer(dir Direction, payload uint64, done func()) sim.Cycle
	// RemoteAccess schedules one small (sector-sized) transaction,
	// paying the link's per-transaction overhead.
	RemoteAccess(dir Direction, payload uint64, done func()) sim.Cycle
	// Stats returns a copy of the per-direction usage counters.
	Stats(dir Direction) ChannelStats
	// Utilization reports the busy fraction of the direction over
	// elapsed simulated time.
	Utilization(dir Direction) float64
}

// Both built-in links satisfy the interface; keep them honest at
// compile time.
var (
	_ Conn = (*Link)(nil)
	_ Conn = (*CXL)(nil)
)

// PublishConnMetrics registers a snapshot provider exposing a link's
// per-direction usage under the given metric prefix
// ("<prefix>.{h2d,d2h}.{transfers,bytes,wire_bytes,busy_cycles}"
// counters plus utilization gauges), so every link, whatever its
// concrete type, reports the same schema.
func PublishConnMetrics(reg *obs.Registry, prefix string, c Conn) {
	if reg == nil {
		return
	}
	reg.RegisterProvider(func(e obs.Emitter) {
		for _, dir := range []Direction{HostToDevice, DeviceToHost} {
			p := prefix + ".h2d."
			if dir == DeviceToHost {
				p = prefix + ".d2h."
			}
			st := c.Stats(dir)
			e.Counter(p+"transfers", st.Transfers)
			e.Counter(p+"bytes", st.Bytes)
			e.Counter(p+"wire_bytes", st.WireBytes)
			e.Counter(p+"busy_cycles", st.BusyCycles)
			e.Gauge(p+"utilization", c.Utilization(dir))
		}
	})
}

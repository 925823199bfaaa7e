// Package interconnect models the CPU-GPU PCIe link as two independent
// directional channels (host-to-device and device-to-host, full duplex)
// with finite bandwidth and a fixed initiation latency.
//
// Each channel serializes its transfers: a transfer occupies the wire for
// bytes/bandwidth cycles and completes one link latency after its
// occupancy ends. Small remote zero-copy transactions pay an additional
// per-transaction header overhead, which is what makes fragmented remote
// access so much less bandwidth-efficient than bulk migration — the trade
// at the heart of the paper.
package interconnect

import (
	"fmt"

	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Direction selects a PCIe channel.
type Direction int

const (
	// HostToDevice carries page migrations and remote store traffic.
	HostToDevice Direction = iota
	// DeviceToHost carries eviction write-backs and remote load traffic.
	DeviceToHost
)

// String names the direction.
func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// ChannelStats aggregates per-direction link usage.
type ChannelStats struct {
	Transfers  uint64 // completed transfers
	Bytes      uint64 // payload bytes moved (excluding headers)
	WireBytes  uint64 // bytes including per-transaction headers
	BusyCycles uint64 // cycles the wire was occupied
}

// channel is one direction of the link.
type channel struct {
	eng           *sim.Engine
	bytesPerCycle float64
	latency       sim.Cycle
	freeAt        sim.Cycle
	stats         ChannelStats
}

// Link is the full-duplex PCIe interconnect.
type Link struct {
	eng           *sim.Engine
	headerBytes   uint64
	remotePenalty float64
	chans         [2]channel
}

// New creates a link attached to the engine with the given per-direction
// bandwidth (bytes per core cycle), initiation latency (cycles) and
// per-transaction header size used for small remote accesses.
// remotePenalty scales the wire occupancy of remote zero-copy
// transactions: unlike bulk DMA, fine-grained remote access is bound by
// the small number of outstanding non-posted requests the endpoint
// sustains, so its effective bandwidth is a fraction of the link's (on
// real PCIe 3.0 x16 roughly one third). Values below 1 are clamped to 1.
func New(eng *sim.Engine, bytesPerCycle float64, latency sim.Cycle, headerBytes uint64, remotePenalty float64) *Link {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("interconnect: non-positive bandwidth %v", bytesPerCycle))
	}
	if remotePenalty < 1 {
		remotePenalty = 1
	}
	l := &Link{eng: eng, headerBytes: headerBytes, remotePenalty: remotePenalty}
	for i := range l.chans {
		l.chans[i] = channel{eng: eng, bytesPerCycle: bytesPerCycle, latency: latency}
	}
	return l
}

// occupancy returns the wire time for n bytes, at least one cycle.
func (c *channel) occupancy(n uint64) sim.Cycle {
	cycles := sim.Cycle(float64(n) / c.bytesPerCycle)
	if float64(cycles)*c.bytesPerCycle < float64(n) {
		cycles++
	}
	if cycles == 0 {
		cycles = 1
	}
	return cycles
}

// transfer reserves the wire for wireBytes and schedules done at the
// completion time. It returns the completion cycle.
func (c *channel) transfer(payload, wireBytes uint64, done func()) sim.Cycle {
	start := c.eng.Now()
	if c.freeAt > start {
		start = c.freeAt
	}
	occ := c.occupancy(wireBytes)
	c.freeAt = start + occ
	c.stats.Transfers++
	c.stats.Bytes += payload
	c.stats.WireBytes += wireBytes
	c.stats.BusyCycles += uint64(occ)
	finish := c.freeAt + c.latency
	if done != nil {
		c.eng.At(finish, done)
	}
	return finish
}

// Transfer schedules a bulk transfer (page migration or write-back) of
// payload bytes in the given direction and invokes done when the data has
// fully landed. It returns the completion cycle. Bulk transfers pay no
// per-transaction header: the driver moves data in large DMA bursts.
func (l *Link) Transfer(dir Direction, payload uint64, done func()) sim.Cycle {
	if payload == 0 {
		panic("interconnect: zero-byte transfer")
	}
	return l.chans[dir].transfer(payload, payload, done)
}

// RemoteAccess schedules a small zero-copy transaction of payload bytes
// (a 128B sector or less) in the given direction. It pays the header
// overhead on the wire and invokes done at completion, returning the
// completion cycle.
func (l *Link) RemoteAccess(dir Direction, payload uint64, done func()) sim.Cycle {
	if payload == 0 {
		panic("interconnect: zero-byte remote access")
	}
	wire := uint64(float64(payload+l.headerBytes) * l.remotePenalty)
	return l.chans[dir].transfer(payload, wire, done)
}

// Lookahead returns the minimum number of cycles that must elapse
// between initiating a transfer on this link and its completion
// becoming visible on the far side: the smaller directional initiation
// latency plus the one-cycle minimum wire occupancy. This is the
// model's cross-partition interaction delay, which conservative PDES
// uses to derive its safe horizon — no GPU can be affected by host
// memory (and hence, transitively, by any other GPU) sooner than one
// link traversal from now, so all partitions may advance at least this
// far beyond the earliest pending event without risking a causality
// violation.
func (l *Link) Lookahead() sim.Cycle {
	min := l.chans[HostToDevice].latency
	if l.chans[DeviceToHost].latency < min {
		min = l.chans[DeviceToHost].latency
	}
	return min + 1 // occupancy() never returns less than one cycle
}

// FreeAt reports when the given direction's wire next becomes idle.
func (l *Link) FreeAt(dir Direction) sim.Cycle { return l.chans[dir].freeAt }

// Stats returns a copy of the per-direction usage counters.
func (l *Link) Stats(dir Direction) ChannelStats { return l.chans[dir].stats }

// Utilization reports the busy fraction of the given direction over the
// elapsed simulation time (0 when no time has passed).
func (l *Link) Utilization(dir Direction) float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.chans[dir].stats.BusyCycles) / float64(now)
}

// PublishMetrics registers a snapshot provider exposing per-direction
// link usage (pcie.{h2d,d2h}.{transfers,bytes,wire_bytes,busy_cycles}
// counters and pcie.*.utilization gauges). Publication happens at
// collection time only, so the transfer hot path is untouched.
func (l *Link) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterProvider(func(e obs.Emitter) {
		for _, dir := range []Direction{HostToDevice, DeviceToHost} {
			prefix := "pcie.h2d."
			if dir == DeviceToHost {
				prefix = "pcie.d2h."
			}
			st := l.chans[dir].stats
			e.Counter(prefix+"transfers", st.Transfers)
			e.Counter(prefix+"bytes", st.Bytes)
			e.Counter(prefix+"wire_bytes", st.WireBytes)
			e.Counter(prefix+"busy_cycles", st.BusyCycles)
			e.Gauge(prefix+"utilization", l.Utilization(dir))
		}
	})
}

package interconnect

import (
	"fmt"

	"uvmsim/internal/sim"
)

// DefaultFlitBytes is the CXL.mem flit size: every message on the link
// occupies a whole number of 64-byte flits.
const DefaultFlitBytes = 64

// CXL models one GPU's port into the pooled memory tier. It reuses the
// same full-duplex serialized-channel machinery as the PCIe Link but
// differs in its wire accounting: traffic is flit-granular (payloads
// round up to whole 64B flits) and every transaction — bulk or small —
// carries a one-flit protocol header, reflecting CXL.mem's
// request/response message framing. There is no remote-access penalty
// factor: CXL.mem is load/store-native, so fine-grained access is only
// penalized by its framing overhead, not by a non-posted-request
// ceiling. That asymmetry against PCIe is what makes a pooled tier
// attractive for fragmented access patterns in the first place.
type CXL struct {
	eng       *sim.Engine
	flitBytes uint64
	chans     [2]channel
}

// NewCXL creates a CXL port attached to the engine with the given
// per-direction bandwidth (bytes per core cycle), initiation latency
// (cycles) and flit size (0 selects DefaultFlitBytes).
func NewCXL(eng *sim.Engine, bytesPerCycle float64, latency sim.Cycle, flitBytes uint64) *CXL {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("interconnect: non-positive CXL bandwidth %v", bytesPerCycle))
	}
	if flitBytes == 0 {
		flitBytes = DefaultFlitBytes
	}
	c := &CXL{eng: eng, flitBytes: flitBytes}
	for i := range c.chans {
		c.chans[i] = channel{eng: eng, bytesPerCycle: bytesPerCycle, latency: latency}
	}
	return c
}

// flits rounds payload bytes up to whole flits and adds the header flit.
func (c *CXL) flits(payload uint64) uint64 {
	n := (payload + c.flitBytes - 1) / c.flitBytes
	return (n + 1) * c.flitBytes
}

// Transfer schedules a bulk move of payload bytes toward (HostToDevice:
// pool→GPU fill) or from (DeviceToHost: GPU→pool writeback) the pool and
// invokes done when it lands, returning the completion cycle.
func (c *CXL) Transfer(dir Direction, payload uint64, done func()) sim.Cycle {
	if payload == 0 {
		panic("interconnect: zero-byte CXL transfer")
	}
	return c.chans[dir].transfer(payload, c.flits(payload), done)
}

// RemoteAccess schedules one load/store-sized transaction against the
// pool. On CXL the cost model is identical to Transfer — flit rounding
// plus the header flit — because the link is load/store-native.
func (c *CXL) RemoteAccess(dir Direction, payload uint64, done func()) sim.Cycle {
	if payload == 0 {
		panic("interconnect: zero-byte CXL remote access")
	}
	return c.chans[dir].transfer(payload, c.flits(payload), done)
}

// Stats returns a copy of the per-direction usage counters.
func (c *CXL) Stats(dir Direction) ChannelStats { return c.chans[dir].stats }

// Utilization reports the busy fraction of the given direction over the
// elapsed simulation time (0 when no time has passed).
func (c *CXL) Utilization(dir Direction) float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.chans[dir].stats.BusyCycles) / float64(now)
}

package uvm

import (
	"errors"
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
	"uvmsim/internal/sim"
)

// This file implements the driver's side of simulator forking: a deep
// state copy at a quiescent point (a kernel barrier — engine drained,
// no migrations queued or in flight), plus the decision-monitor hook
// the prefix-sharing runner (internal/snapshot) uses to prove that a
// forked run with a different policy configuration is byte-identical
// to a from-scratch run up to the fork point.

// DecisionMonitor observes every policy-relevant decision the driver
// makes. The prefix-sharing fork runner mirrors each planner
// consultation into shadow planners built from the follower
// configurations and downgrades a follower to a from-scratch run the
// moment its shadow would have decided differently — or the moment a
// decision is taken on a seam the shadows cannot replicate (placement
// advice, eviction under a different replacement policy).
type DecisionMonitor interface {
	// OnPlan mirrors one planner consultation: the access and the
	// decision the live planner took.
	OnPlan(a mm.Access, migrate bool)
	// OnEvict fires when capacity pressure invokes the eviction engine
	// (including the oversubscription latch). Victim choice depends on
	// the replacement configuration, so followers configured with a
	// different replacement policy diverge here.
	OnEvict()
	// OnUnforkable fires when the driver takes a decision outside the
	// planner seam that shadows cannot replicate; all followers
	// diverge.
	OnUnforkable(reason string)
}

// SetDecisionMonitor installs the decision monitor (nil to detach).
func (d *Driver) SetDecisionMonitor(m DecisionMonitor) { d.mon = m }

// clone deep-copies the TLB (arena, LRU chain and page index).
func (t *tlb) clone() *tlb {
	c := *t
	c.idx = append([]int32(nil), t.idx...)
	c.nodes = append([]tlbNode(nil), t.nodes...)
	c.free = append([]int32(nil), t.free...)
	return &c
}

// CloneWith returns an independent deep copy of the driver attached to
// eng, running cfg with the given pipeline stages (nil stages resolve
// to cfg's built-ins). It is only valid at a quiescent point and only
// for configurations that preserve the memory geometry; policy fields
// (Policy, Replacement, WriteMigrates, thresholds) may differ — that is
// the point of forking — but the caller owns the proof that the donor's
// history is decision-identical under the new configuration (see
// internal/snapshot).
func (d *Driver) CloneWith(eng *sim.Engine, cfg config.Config, pipe mm.Pipeline) (*Driver, error) {
	if d.finalized {
		return nil, errors.New("uvm: clone after Finalize")
	}
	if d.o != nil || d.obs != nil {
		return nil, errors.New("uvm: clone with observability attached")
	}
	if d.eng.Pending() != 0 || d.PendingWork() || d.inFlightTotal != 0 || d.wbInFlight != 0 {
		return nil, errors.New("uvm: clone at a non-quiescent point")
	}
	if err := mm.ForkablePipeline(d.cfg.MMPipeline); err != nil {
		return nil, err
	}
	if cfg.DeviceMemBytes != d.cfg.DeviceMemBytes || cfg.TLBEntries != d.cfg.TLBEntries {
		return nil, errors.New("uvm: clone must preserve memory geometry")
	}
	nd := NewWithPipeline(eng, cfg, d.space, pipe)
	nd.mem = d.mem.Clone()
	nd.link = d.link.CloneFor(eng)
	nd.ctrs = d.ctrs.Clone()
	nd.gmmuTLB = d.gmmuTLB.clone()
	nd.st = d.st

	nd.blockArr = make([]blockState, len(d.blockArr))
	copy(nd.blockArr, d.blockArr)
	for i := range nd.blockArr {
		if nd.blockArr[i].pending || nd.blockArr[i].waiters != nil {
			return nil, fmt.Errorf("uvm: clone with block %d in flight", i)
		}
	}

	nd.chunkArr = make([]*chunkState, len(d.chunkArr))
	for i, cs := range d.chunkArr {
		if cs == nil {
			continue
		}
		if cs.queuedBlocks != 0 || cs.inFlightBlocks != 0 {
			return nil, fmt.Errorf("uvm: clone with chunk %d in flight", i)
		}
		pf, ok := mm.CloneChunkPrefetcher(cs.pf)
		if !ok {
			return nil, fmt.Errorf("uvm: chunk %d prefetch state is not clonable", i)
		}
		nc := *cs
		nc.pf = pf
		nd.chunkArr[i] = &nc
	}
	nd.evictable = append([]uint64(nil), d.evictable...)

	if d.advice != nil {
		nd.advice = make(map[int]Advice, len(d.advice))
		for k, v := range d.advice {
			nd.advice[k] = v
		}
	}
	return nd, nil
}

package uvm

import (
	"fmt"

	"uvmsim/internal/alloc"
)

// Advice mirrors the user-hint APIs the paper discusses in §III-C:
// cudaMemAdviseSetPreferredLocation (soft-pin to host with
// counter-delayed migration) and cudaHostRegister-style zero-copy
// hard pinning. The paper's point is that choosing these hints demands
// intrusive profiling; the Adaptive policy exists to make them
// unnecessary. The driver implements them so the two approaches can be
// compared head-to-head (see `paperbench -fig hints`).
type Advice int

const (
	// AdviceNone leaves placement to the active migration policy.
	AdviceNone Advice = iota
	// AdvicePreferHost soft-pins the allocation to host memory: reads
	// migrate only after the static access-counter threshold, writes
	// migrate immediately (Volta semantics), regardless of the global
	// policy.
	AdvicePreferHost
	// AdvicePinHost hard-pins the allocation to host memory (zero-copy):
	// its pages are never migrated; every access is remote.
	AdvicePinHost
)

// String names the advice.
func (a Advice) String() string {
	switch a {
	case AdviceNone:
		return "None"
	case AdvicePreferHost:
		return "PreferHost"
	case AdvicePinHost:
		return "PinHost"
	default:
		return fmt.Sprintf("Advice(%d)", int(a))
	}
}

// Advise attaches placement advice to a managed allocation. It must be
// called before the allocation is touched: advising data that is already
// (partially) device-resident is a usage error the driver rejects,
// matching the "advise right after allocation" discipline of the real
// API.
func (d *Driver) Advise(a *alloc.Allocation, adv Advice) {
	if a == nil {
		panic("uvm: advising nil allocation")
	}
	switch adv {
	case AdviceNone, AdvicePreferHost, AdvicePinHost:
	default:
		panic(fmt.Sprintf("uvm: unknown advice %d", int(adv)))
	}
	first := a.FirstBlock()
	for b := first; b < first+a.NumBlocks(); b++ {
		if bs := d.blockAt(b); bs != nil && bs.phase != onHost {
			panic(fmt.Sprintf("uvm: advising %q after its data was touched", a.Name))
		}
	}
	if d.advice == nil {
		d.advice = make(map[int]Advice)
	}
	d.advice[a.ID] = adv
}

// adviceFor returns the advice covering addr (AdviceNone when unset).
func (d *Driver) adviceFor(a *alloc.Allocation) Advice {
	if d.advice == nil || a == nil {
		return AdviceNone
	}
	return d.advice[a.ID]
}

// Package workloads implements synthetic equivalents of the paper's
// benchmark suite (§V): four regular applications (backprop, fdtd,
// hotspot, srad) with dense, sequential, repetitive access, and four
// irregular ones (bfs, nw, ra, sssp) with sparse, seldom access to large
// cold data structures plus dense access to hot ones.
//
// Each workload allocates managed data structures and produces the
// ordered list of kernel launches whose warp programs generate the same
// *access pattern taxonomy* the paper characterizes in §III-B. The
// policies under study observe only the address/type/timing stream, so
// matching the pattern preserves the evaluation's shape (see DESIGN.md).
package workloads

import (
	"fmt"

	"uvmsim/internal/alloc"
	"uvmsim/internal/gpu"
)

// Built is an instantiated workload ready to simulate.
type Built struct {
	Name    string
	Regular bool
	// Space holds the managed allocations (sized before the simulator
	// chooses device capacity, so oversubscription can be derived from
	// TotalUserBytes).
	Space *alloc.Space
	// Kernels run in launch order with device synchronization between
	// them.
	Kernels []gpu.Kernel
	// IterOf maps a kernel index to its logical iteration number
	// (1-based), for the Fig. 3 access-pattern traces.
	IterOf []int
}

// WorkingSet returns the user-visible working set in bytes.
func (b *Built) WorkingSet() uint64 { return b.Space.TotalUserBytes() }

// Factory builds a workload at the given scale. Scale 1.0 is the
// "paper" size (tens of MB); tests use much smaller scales.
type Factory func(scale float64) *Built

// registry of all workloads in the paper's plotting order.
var registry = []struct {
	name    string
	regular bool
	f       Factory
}{
	{"backprop", true, Backprop},
	{"fdtd", true, FDTD},
	{"hotspot", true, Hotspot},
	{"srad", true, SRAD},
	{"bfs", false, BFS},
	{"nw", false, NW},
	{"ra", false, RA},
	{"sssp", false, SSSP},
}

// Names returns all workload names in the paper's order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// IrregularNames returns the irregular workloads in order.
func IrregularNames() []string { return Names()[4:] }

// Get returns the factory for a workload name, searching the paper
// suite first and then the extras (see extras.go).
func Get(name string) (Factory, bool) {
	for _, r := range registry {
		if r.name == name {
			return r.f, true
		}
	}
	for _, r := range extras {
		if r.name == name {
			return r.f, true
		}
	}
	return nil, false
}

// MustGet is Get or panic.
func MustGet(name string) Factory {
	f, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("workloads: unknown workload %q (have %v)", name, Names()))
	}
	return f
}

// IsRegular reports the paper's classification for a workload name.
func IsRegular(name string) bool {
	for _, r := range registry {
		if r.name == name {
			return r.regular
		}
	}
	for _, r := range extras {
		if r.name == name {
			return r.regular
		}
	}
	panic(fmt.Sprintf("workloads: unknown workload %q", name))
}

// scaleElems scales an element count, keeping it positive and 32-aligned.
func scaleElems(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1024 {
		n = 1024
	}
	return (n + 31) &^ 31
}

// warpsPerCTA is the CTA shape used by all synthetic kernels.
const warpsPerCTA = 8

// partitionKernel builds a kernel that splits totalItems work items into
// warps of itemsPerWarp contiguous items each; mk builds the program for
// the item range [lo, hi).
func partitionKernel(name string, totalItems, itemsPerWarp int, mk func(lo, hi int) gpu.WarpProgram) gpu.Kernel {
	if totalItems <= 0 {
		panic(fmt.Sprintf("workloads: kernel %q with %d items", name, totalItems))
	}
	if itemsPerWarp <= 0 {
		panic(fmt.Sprintf("workloads: kernel %q with %d items per warp", name, itemsPerWarp))
	}
	warps := (totalItems + itemsPerWarp - 1) / itemsPerWarp
	ctas := (warps + warpsPerCTA - 1) / warpsPerCTA
	return gpu.Kernel{
		Name:        name,
		CTAs:        ctas,
		WarpsPerCTA: warpsPerCTA,
		NewWarp: func(cta, w int) gpu.WarpProgram {
			wi := cta*warpsPerCTA + w
			lo := wi * itemsPerWarp
			hi := lo + itemsPerWarp
			if lo >= totalItems {
				return emptyProgram{}
			}
			if hi > totalItems {
				hi = totalItems
			}
			return mk(lo, hi)
		},
	}
}

// emptyProgram is a warp with no work (tail padding of the last CTA).
type emptyProgram struct{}

// Next reports no instructions.
func (emptyProgram) Next(*gpu.Instr) bool { return false }

// xorshift64 is the deterministic PRNG used by all generators.
type xorshift64 uint64

func newRNG(seed uint64) *xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	x := xorshift64(seed)
	return &x
}

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift64) intn(n int) int {
	if n <= 0 {
		panic("workloads: intn on non-positive bound")
	}
	return int(x.next() % uint64(n))
}

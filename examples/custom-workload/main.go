// Custom workload: build a new benchmark against the public API — a
// hot/cold mix in the spirit of the paper's irregular-application
// characterization (§III-B) — and evaluate it under the baseline and
// Adaptive policies.
//
// The workload has two managed allocations:
//   - "hot": a small array swept densely and repeatedly (high access
//     frequency per 64KB basic block), and
//   - "cold": a large array probed sparsely at random (a handful of
//     accesses per block over the whole run).
//
// Under oversubscription the Adaptive policy should keep the hot array
// device-resident and serve the cold probes by remote zero-copy access,
// while the first-touch baseline thrashes.
//
//	go run ./examples/custom-workload
package main

import (
	"fmt"

	"uvmsim"
)

// probeProgram issues random read probes into the cold array followed by
// a dense read-modify-write pass over a slice of the hot array.
type probeProgram struct {
	cold, hot *uvmsim.Allocation
	probes    []uint64 // element indices into cold
	hotLo     uint64   // hot element range [hotLo, hotHi)
	hotHi     uint64
	pos       int
	hotPos    uint64
	phaseHot  bool
	writeHalf bool
}

// Next implements uvmsim.WarpProgram.
func (p *probeProgram) Next(in *uvmsim.Instr) bool {
	const lanes = 32
	if !p.phaseHot {
		if p.pos >= len(p.probes) {
			p.phaseHot = true
			p.hotPos = p.hotLo
			return p.Next(in)
		}
		n := len(p.probes) - p.pos
		if n > lanes {
			n = lanes
		}
		in.Compute = 4
		in.Write = false
		in.NumAddrs = n
		in.Stride = 0 // per-lane addresses
		for i := 0; i < n; i++ {
			in.Addrs[i] = p.cold.Addr(p.probes[p.pos+i] * 4)
		}
		p.pos += n
		return true
	}
	if p.hotPos >= p.hotHi {
		return false
	}
	end := p.hotPos + lanes
	if end > p.hotHi {
		end = p.hotHi
	}
	in.Compute = 2
	in.Write = p.writeHalf
	in.NumAddrs = int(end - p.hotPos)
	// A dense lane range: lane i reads Addrs[0] + i*Stride.
	in.Stride = 4
	in.Addrs[0] = p.hot.Addr(p.hotPos * 4)
	if p.writeHalf {
		p.hotPos = end
	}
	p.writeHalf = !p.writeHalf
	return true
}

// buildHotCold assembles the workload: iterations of a kernel whose
// warps probe the cold array sparsely and then sweep a share of the hot
// array densely.
func buildHotCold() *uvmsim.Workload {
	const (
		coldElems  = 8 << 20 // 32MB cold array
		hotElems   = 1 << 20 // 4MB hot array
		iterations = 6
		warpsTotal = 512
		// probesPer keeps the cold array genuinely cold: ~48 accesses
		// per 64KB basic block over the whole run, below the Adaptive
		// oversubscription threshold ts*p = 64, so cold probes stay
		// remote while the baseline keeps faulting them in.
		probesPer = 8
	)
	space := uvmsim.NewSpace()
	cold := space.Alloc("cold", coldElems*4, true)
	hot := space.Alloc("hot", hotElems*4, false)

	seed := uint64(0xC01D)
	rand := func() uint64 { // xorshift64
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}

	hotPerWarp := uint64(hotElems / warpsTotal)
	var kernels []uvmsim.Kernel
	var iterOf []int
	for it := 1; it <= iterations; it++ {
		// Pre-generate each warp's random probes for determinism.
		probes := make([][]uint64, warpsTotal)
		for w := range probes {
			ps := make([]uint64, probesPer)
			for i := range ps {
				ps[i] = rand() % coldElems
			}
			probes[w] = ps
		}
		kernels = append(kernels, uvmsim.Kernel{
			Name:        fmt.Sprintf("hotcold_i%d", it),
			CTAs:        warpsTotal / 8,
			WarpsPerCTA: 8,
			NewWarp: func(cta, w int) uvmsim.WarpProgram {
				wi := uint64(cta*8 + w)
				return &probeProgram{
					cold:   cold,
					hot:    hot,
					probes: probes[wi],
					hotLo:  wi * hotPerWarp,
					hotHi:  (wi + 1) * hotPerWarp,
				}
			},
		})
		iterOf = append(iterOf, it)
	}
	return &uvmsim.Workload{
		Name:    "hotcold",
		Regular: false,
		Space:   space,
		Kernels: kernels,
		IterOf:  iterOf,
	}
}

func main() {
	w := buildHotCold()
	fmt.Printf("custom workload %q: working set %d MB, %d kernels\n\n",
		w.Name, w.WorkingSet()>>20, len(w.Kernels))

	for _, pol := range []uvmsim.MigrationPolicy{uvmsim.PolicyDisabled, uvmsim.PolicyAdaptive} {
		cfg := uvmsim.DefaultConfig().WithPolicy(pol)
		cfg.Penalty = 8
		cfg = cfg.WithOversubscription(w.WorkingSet(), 125)
		res := uvmsim.Run(w, cfg)
		fmt.Printf("%-10v %s\n", pol, res.Counters.String())
	}
	fmt.Println("\nAdaptive keeps the hot array local and probes the cold array remotely,")
	fmt.Println("eliminating most of the baseline's page thrashing.")
}

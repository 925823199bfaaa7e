package workloads

import (
	"fmt"

	"uvmsim/internal/alloc"
	"uvmsim/internal/gpu"
)

// Extra workloads beyond the paper's eight-benchmark suite. They do not
// participate in the figure sweeps (Names returns only the paper set)
// but are available through Get/MustGet for library users — the paper's
// related work motivates both: Spatter [17] characterizes exactly the
// scatter/gather patterns below, and Vesely et al. [28] study the
// address-translation cost of dependent (pointer-chasing) accesses.
var extras = []struct {
	name    string
	regular bool
	f       Factory
}{
	{"spatter", false, Spatter},
	{"pointerchase", false, PointerChase},
}

// ExtraNames returns the additional workload names.
func ExtraNames() []string {
	out := make([]string, len(extras))
	for i, e := range extras {
		out[i] = e.name
	}
	return out
}

// AllNames returns the paper workloads followed by the extras.
func AllNames() []string { return append(Names(), ExtraNames()...) }

// Spatter models the Spatter benchmark suite's core kernels: a gather
// pass (dense sweep of an index array, sparse reads of a large buffer)
// followed by a scatter pass (sparse writes into the buffer), with a mix
// of strided and uniform-random index patterns.
func Spatter(scale float64) *Built {
	space := alloc.NewSpace()
	bufElems := scaleElems(6<<20, scale) // 24MB buffer at scale 1
	idxElems := scaleElems(1<<20, scale) // 4MB of indices
	const iters = 3

	buf := space.Alloc("buffer", uint64(bufElems)*elemSize, false)
	idxA := space.Alloc("indices", uint64(idxElems)*elemSize, true)

	rng := newRNG(0x59A77E4)
	// Half the indices are strided (stride 17 pages-ish), half random.
	idx := make([]int32, idxElems)
	for i := range idx {
		if i%2 == 0 {
			idx[i] = int32((i * 17 * 1024) % bufElems)
		} else {
			idx[i] = int32(rng.intn(bufElems))
		}
	}

	idxOps := []operand{readOp(idxA)}
	gatherOps := []operand{readOp(buf)}
	scatterOps := []operand{writeOp(buf)}
	var kernels []gpu.Kernel
	var iterOf []int
	for it := 1; it <= iters; it++ {
		gather := partitionKernel(fmt.Sprintf("spatter_gather_i%d", it), idxElems, 512,
			func(lo, hi int) gpu.WarpProgram {
				// Dense read of the index array, then the gather itself.
				return chainPrograms(
					newStream(idxOps, lo, hi, 2),
					newGather(gatherOps, idx[lo:hi], 2),
				)
			})
		scatter := partitionKernel(fmt.Sprintf("spatter_scatter_i%d", it), idxElems, 512,
			func(lo, hi int) gpu.WarpProgram {
				return chainPrograms(
					newStream(idxOps, lo, hi, 2),
					newGather(scatterOps, idx[lo:hi], 2),
				)
			})
		kernels = append(kernels, gather, scatter)
		iterOf = append(iterOf, it, it)
	}
	return &Built{Name: "spatter", Regular: false, Space: space, Kernels: kernels, IterOf: iterOf}
}

// chaseProgram follows a pointer chain: every access depends on the
// previous one, so a warp has exactly one outstanding transaction and
// the workload is purely latency-bound — the worst case for any
// prefetcher and a stress test for translation overhead.
type chaseProgram struct {
	base  uint64 // allocation base address
	next  []int32
	cur   int32
	steps int
}

// Next implements gpu.WarpProgram.
func (p *chaseProgram) Next(in *gpu.Instr) bool {
	if p.steps == 0 {
		return false
	}
	p.steps--
	in.Compute = 1
	in.Write = false
	in.NumAddrs = 1
	in.Stride = 0
	in.Addrs[0] = p.base + uint64(p.cur)*elemSize
	p.cur = p.next[p.cur]
	return true
}

// PointerChase models dependent irregular access: warps walk a random
// permutation cycle through a large node array, one element at a time.
func PointerChase(scale float64) *Built {
	space := alloc.NewSpace()
	n := scaleElems(4<<20, scale) // 16MB of nodes at scale 1
	nodes := space.Alloc("nodes", uint64(n)*elemSize, true)

	// Sattolo's algorithm: one cycle covering every node.
	rng := newRNG(0xC4A5E)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[n-1]] = perm[0]

	const warps = 512
	steps := n / warps / 4 // each warp walks a quarter of its share
	if steps < 16 {
		steps = 16
	}
	k := gpu.Kernel{
		Name:        "pointerchase",
		CTAs:        warps / warpsPerCTA,
		WarpsPerCTA: warpsPerCTA,
		NewWarp: func(cta, w int) gpu.WarpProgram {
			wi := cta*warpsPerCTA + w
			start := perm[(wi*(n/warps))%n]
			return &chaseProgram{base: nodes.Base, next: next, cur: start, steps: steps}
		},
	}
	return &Built{Name: "pointerchase", Regular: false, Space: space, Kernels: []gpu.Kernel{k}, IterOf: []int{1}}
}

package workloads

import (
	"fmt"
	"math"

	"uvmsim/internal/alloc"
	"uvmsim/internal/gpu"
)

// nodesPerWarp is the node-range share per warp in graph kernels: one
// thread per node, Rodinia-style, so a warp owns a contiguous slice of
// the node id space.
const nodesPerWarp = 512

// BFS models the Rodinia bfs: every level launches one thread per node,
// so each level's kernel1 densely sweeps the small hot mask array while
// only frontier nodes walk their adjacency — a sparse excursion into the
// large cold edges array with scatter updates of the cost array — and a
// small kernel2 densely updates the masks. Frontiers are computed
// host-side and replayed, making runs deterministic.
func BFS(scale float64) *Built {
	n := scaleElems(1<<20, scale)
	const (
		avgDeg    = 6
		layers    = 25
		reachFrac = 0.08
	)
	g := GenTraversalGraph(n, avgDeg, layers, reachFrac, 0xBF5, false)
	return buildBFS(g, BFSLevels(g))
}

// buildBFS assembles the bfs workload over any graph and its host-side
// BFS levels (shared by the synthetic factory and BFSOnGraph).
func buildBFS(g *Graph, levels [][]int32) *Built {
	space := alloc.NewSpace()
	n := g.N
	rowPtr := space.Alloc("rowptr", uint64(n+1)*elemSize, true)
	edges := space.Alloc("edges", uint64(g.NumEdges())*elemSize, true)
	mask := space.Alloc("mask", uint64(n)*elemSize, false)
	dist := space.Alloc("cost", uint64(n)*elemSize, false)

	var kernels []gpu.Kernel
	var iterOf []int
	for li, frontier := range levels {
		bm := frontierBitmap(n, frontier)
		kernels = append(kernels,
			partitionKernel(fmt.Sprintf("bfs_k1_l%d", li+1), n, nodesPerWarp,
				func(lo, hi int) gpu.WarpProgram {
					return newMaskedCSR(g, mask.Base, rowPtr.Base, edges.Base, dist.Base, 0, bm, lo, hi, 4)
				}),
			denseKernel(fmt.Sprintf("bfs_k2_l%d", li+1), n,
				[]operand{readOp(mask), writeOp(mask)}, 2),
		)
		iterOf = append(iterOf, li+1, li+1)
	}
	return &Built{Name: "bfs", Regular: false, Space: space, Kernels: kernels, IterOf: iterOf}
}

// SSSP models the paper's sssp characterization (§III-B, Figs. 2b/3c/3d):
// each iteration runs kernel1 — a dense mask sweep with sparse,
// worklist-driven relaxation over the large cold edges/weights arrays —
// followed by kernel2, a dense sequential sweep over two small hot
// arrays (distances and a mask). The skewed graph makes hub nodes
// reactivate across rounds, so hot edge blocks are revisited while the
// long tail stays cold — the input-dependent split of Fig. 2b.
func SSSP(scale float64) *Built {
	n := scaleElems(1<<20, scale)
	const (
		avgDeg    = 3
		layers    = 20
		reachFrac = 0.08
		maxRounds = 2 * layers
	)
	g := GenTraversalGraph(n, avgDeg, layers, reachFrac, 0x55B, true)
	rounds, _ := SSSPRounds(g, maxRounds)
	return buildSSSP(g, rounds)
}

// buildSSSP assembles the sssp workload over any weighted graph and its
// host-side worklist rounds (shared by the synthetic factory and
// SSSPOnGraph).
func buildSSSP(g *Graph, rounds [][]int32) *Built {
	space := alloc.NewSpace()
	n := g.N
	rowPtr := space.Alloc("rowptr", uint64(n+1)*elemSize, true)
	edges := space.Alloc("edges", uint64(g.NumEdges())*elemSize, true)
	weights := space.Alloc("weights", uint64(g.NumEdges())*elemSize, true)
	dist := space.Alloc("dist", uint64(n)*elemSize, false)
	mask := space.Alloc("mask", uint64(n)*elemSize, false)

	var kernels []gpu.Kernel
	var iterOf []int
	for ri, work := range rounds {
		bm := frontierBitmap(n, work)
		kernels = append(kernels,
			partitionKernel(fmt.Sprintf("sssp_k1_i%d", ri+1), n, nodesPerWarp,
				func(lo, hi int) gpu.WarpProgram {
					return newMaskedCSR(g, mask.Base, rowPtr.Base, edges.Base, dist.Base, weights.Base, bm, lo, hi, 4)
				}),
			denseKernel(fmt.Sprintf("sssp_k2_i%d", ri+1), n,
				[]operand{readOp(dist), readOp(mask), writeOp(mask)}, 6),
		)
		iterOf = append(iterOf, ri+1, ri+1)
	}
	return &Built{Name: "sssp", Regular: false, Space: space, Kernels: kernels, IterOf: iterOf}
}

// RA models the HPC Challenge RandomAccess (GUPS) benchmark: uniformly
// random read-modify-write updates over one huge table, with no reuse —
// the paper's perfect candidate for zero-copy host pinning.
func RA(scale float64) *Built {
	space := alloc.NewSpace()
	tableElems := scaleElems(8<<20, scale) // 32MB at scale 1
	// GUPS-style sparsity: ~2*updates/blocks ≈ 250 accesses per 64KB
	// block over the whole run, matching the "no reuse, seldom access"
	// regime the paper identifies as the perfect zero-copy candidate.
	// The floor gives scaled-down runs enough temporal depth that the
	// update stream outlives the initial cold-start wave (policies only
	// differentiate once counters and round trips accumulate).
	updates := tableElems / 128
	if updates < 16384 {
		updates = 16384
	}

	table := space.Alloc("table", uint64(tableElems)*elemSize, false)

	rng := newRNG(0x4A)
	idx := make([]int32, updates)
	for i := range idx {
		idx[i] = int32(rng.intn(tableElems))
	}
	// 512 updates per warp balances two needs: warps must be numerous
	// enough for multi-GPU splitting, while each warp's stream must be
	// deep enough that the bulk of the updates happen *after* the
	// cold-start wave, when counters and round trips have accumulated
	// and the delayed-migration policies can differentiate.
	ops := []operand{readOp(table), writeOp(table)}
	k := partitionKernel("ra_update", updates, 512, func(lo, hi int) gpu.WarpProgram {
		return newGather(ops, idx[lo:hi], 2)
	})
	return &Built{Name: "ra", Regular: false, Space: space, Kernels: []gpu.Kernel{k}, IterOf: []int{1}}
}

// nwBlock is the tile edge of the Needleman-Wunsch wavefront.
const nwBlock = 16

// NW models the Rodinia Needleman-Wunsch sequence alignment: an
// anti-diagonal wavefront of 16x16 tiles over a score matrix (read-write)
// and a reference matrix (read-only). The diagonal traversal revisits
// row pages across many widely-spaced kernel launches, which is what
// thrashes under LRU at oversubscription.
func NW(scale float64) *Built {
	space := alloc.NewSpace()
	// Matrix bytes scale with scale, so the edge scales with sqrt.
	edge := int(2048 * math.Sqrt(scale))
	if edge < 2*nwBlock {
		edge = 2 * nwBlock
	}
	edge = (edge + nwBlock - 1) / nwBlock * nwBlock
	n := edge * edge

	matrix := space.Alloc("matrix", uint64(n)*elemSize, false)
	ref := space.Alloc("reference", uint64(n)*elemSize, true)

	nb := edge / nwBlock
	ops := []operand{readOp(matrix), readOp(ref), writeOp(matrix)}
	var kernels []gpu.Kernel
	var iterOf []int
	for d := 0; d < 2*nb-1; d++ {
		iLo := d - nb + 1
		if iLo < 0 {
			iLo = 0
		}
		iHi := d
		if iHi > nb-1 {
			iHi = nb - 1
		}
		blocks := iHi - iLo + 1
		dd := d
		kernels = append(kernels, partitionKernel(
			fmt.Sprintf("nw_diag%d", d+1), blocks, 2,
			func(lo, hi int) gpu.WarpProgram {
				c := chainPrograms()
				for b := lo; b < hi; b++ {
					bi := iLo + b
					bj := dd - bi
					rowLo := bi * nwBlock
					colLo := bj * nwBlock
					c.progs = append(c.progs, newStrided(
						ops, rowLo, rowLo+nwBlock, colLo, colLo+nwBlock, edge, 6))
				}
				return c
			}))
		iterOf = append(iterOf, 1)
	}
	return &Built{Name: "nw", Regular: false, Space: space, Kernels: kernels, IterOf: iterOf}
}

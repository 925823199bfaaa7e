package workloads

import "fmt"

// TraversalGraph generation.
//
// The paper's irregular traversal benchmarks (bfs, sssp) operate on
// inputs whose defining property is *sparse, seldom access to large
// data sets*: only a scattered fraction of the edge array is ever
// touched, and it is touched a few transactions at a time across many
// thin iterations. A uniformly-reachable random graph scaled down to
// simulator-friendly sizes loses exactly that property — any broad
// frontier becomes dense at 64KB-block granularity and every block
// crosses any access threshold immediately.
//
// GenTraversalGraph therefore builds a graph with an explicitly layered
// reachable subgraph:
//
//   - a fraction reachFrac of the nodes, scattered uniformly through the
//     node id space, is reachable from node 0;
//   - the reachable set is partitioned into `layers` equal waves; BFS
//     from node 0 discovers exactly one wave per level, so frontiers are
//     thin and uniform instead of exponentially back-loaded;
//   - reachable nodes also receive a few same-layer and backward edges,
//     which make worklist SSSP re-relax earlier waves (re-touching edge
//     blocks across rounds);
//   - unreachable nodes still own ordinary adjacency lists, so the edge
//     array has its full footprint while most of it is never read —
//     the cold data the Adaptive policy can leave host-pinned.

// GenTraversalGraph builds the layered sparse-traversal graph described
// above: n nodes, about n*avgDeg edges, a reachable subgraph of
// ~reachFrac*n scattered nodes organized into the given number of
// layers. Node 0 is the single root layer.
//
// The graph is built in place. Only the reachable subgraph's backbone
// and extra edges are staged; they fix every node's final degree,
// max(deg, avgDeg), so RowPtr is laid out before the fillers are drawn
// and each filler is written straight into its slot in Edges. The
// result is a function of the seed alone: TestTraversalGraphDigests
// pins it at the bfs and sssp parameters.
func GenTraversalGraph(n, avgDeg, layers int, reachFrac float64, seed uint64) *Graph {
	if n < 2 || avgDeg < 2 || layers < 1 || reachFrac <= 0 || reachFrac > 1 {
		panic(fmt.Sprintf("workloads: GenTraversalGraph(n=%d, avgDeg=%d, layers=%d, reach=%v)",
			n, avgDeg, layers, reachFrac))
	}
	rng := newRNG(seed)

	// Scatter the reachable set through the id space.
	cut := uint64(reachFrac * float64(1<<16))
	inS := func(v int) bool {
		if v == 0 {
			return true
		}
		x := uint64(v) * 0x9E3779B97F4A7C15
		return (x>>32)%(1<<16) < cut
	}
	var s []int32
	for v := 0; v < n; v++ {
		if inS(v) {
			s = append(s, int32(v))
		}
	}
	if len(s) < layers+1 {
		panic(fmt.Sprintf("workloads: reachable set %d smaller than %d layers", len(s), layers))
	}

	// Partition: layer 0 = {node 0}; layers 1..layers share the rest.
	// s is in ascending id order, which is already scattered relative to
	// the hash-based membership; interleave round-robin so every layer
	// spreads across the id space.
	layerOf := make([]int32, n) // layer+1; 0 = unreachable
	byLayer := make([][]int32, layers+1)
	byLayer[0] = []int32{0}
	layerOf[0] = 1
	i := 0
	for _, v := range s {
		if v == 0 {
			continue
		}
		l := 1 + i%layers
		byLayer[l] = append(byLayer[l], v)
		layerOf[v] = int32(l) + 1
		i++
	}

	// The backbone and extra edges are the reachable subgraph's edges.
	// They are staged as (source, target) pairs in a buffer sized for
	// their bound, one backbone in-edge plus at most three extras per
	// reachable node, with a per-node count in deg.
	type edge struct{ u, t int32 }
	pairs := make([]edge, 0, 4*len(s))
	deg := make([]int32, n)
	addEdge := func(u int, t int32) {
		pairs = append(pairs, edge{int32(u), t})
		deg[u]++
	}

	// Backbone: every node of layer k+1 gets one in-edge from a random
	// node of layer k, making BFS discover exactly one layer per level.
	for l := 1; l <= layers; l++ {
		prev := byLayer[l-1]
		for _, v := range byLayer[l] {
			addEdge(int(prev[rng.intn(len(prev))]), v)
		}
	}
	// Extra reachable-subgraph edges: forward (next layer), same-layer,
	// and backward — the backward ones re-activate earlier waves in
	// worklist SSSP.
	for l := 1; l <= layers; l++ {
		for _, v := range byLayer[l] {
			if l < layers {
				next := byLayer[l+1]
				addEdge(int(v), next[rng.intn(len(next))])
			}
			if rng.intn(2) == 0 {
				same := byLayer[l]
				addEdge(int(v), same[rng.intn(len(same))])
			}
			if l > 1 && rng.intn(4) == 0 {
				back := byLayer[l-1]
				addEdge(int(v), back[rng.intn(len(back))])
			}
		}
	}

	// Fillers bring every node up to avgDeg, so each node's final degree
	// is already known: max(deg, avgDeg). Lay out RowPtr from it, place
	// the staged edges at the front of their nodes' lists in staging
	// order, and write the fillers straight into Edges behind them. Per
	// node, the layout is the staged edges and then the fillers, each in
	// draw order, as if every node had its own appended list.
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] = g.RowPtr[v] + max(deg[v], int32(avgDeg))
	}
	total := int(g.RowPtr[n])
	g.Edges = make([]int32, total)
	clear(deg)
	for _, e := range pairs {
		g.Edges[g.RowPtr[e.u]+deg[e.u]] = e.t
		deg[e.u]++
	}
	// Unreachable nodes get uniformly random fillers — pure footprint,
	// never read by the traversal. Reachable nodes' fillers target
	// same-or-earlier layers so the reachable set stays exactly S and
	// BFS levels stay one layer wide (an edge into an already-visited
	// wave never re-expands BFS, while it does re-activate waves in
	// worklist SSSP).
	for v := 0; v < n; v++ {
		fill := g.Edges[g.RowPtr[v]+deg[v] : g.RowPtr[v+1]]
		if lp := layerOf[v]; lp != 0 {
			l := int(lp - 1)
			for j := range fill {
				tgt := byLayer[rng.intn(l+1)]
				fill[j] = tgt[rng.intn(len(tgt))]
			}
			continue
		}
		for j := range fill {
			fill[j] = int32(rng.intn(n))
		}
	}
	g.Weights = make([]int32, total)
	for j := range g.Weights {
		g.Weights[j] = int32(rng.intn(15) + 1)
	}
	return g
}

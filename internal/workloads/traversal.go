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
// layers. Node 0 is the single root layer. Only a weighted graph gets
// edge weights: sssp reads them, while bfs's kernels never do, so its
// graph has Weights == nil. The weights are drawn after every edge, so
// the edges do not depend on whether they are drawn.
//
// The graph is built in place. Only the reachable subgraph's backbone
// and extra edges are staged; they fix every node's final degree,
// max(deg, avgDeg), so RowPtr is laid out before the fillers are drawn
// and each filler is written straight into its slot in Edges. The
// scratch is sized to the reachable set, not to n: a layer is a stride
// of positions in the ascending reachable list, staged degrees are
// indexed by those positions, and the node loops walk the list with a
// cursor. The result is a function
// of the seed alone: TestTraversalGraphDigests pins it at the bfs and
// sssp parameters.
func GenTraversalGraph(n, avgDeg, layers int, reachFrac float64, seed uint64, weighted bool) *Graph {
	if n < 2 || avgDeg < 2 || layers < 1 || reachFrac <= 0 || reachFrac > 1 {
		panic(fmt.Sprintf("workloads: GenTraversalGraph(n=%d, avgDeg=%d, layers=%d, reach=%v)",
			n, avgDeg, layers, reachFrac))
	}
	rng := newRNG(seed)

	// Scatter the reachable set through the id space. s is ascending and
	// starts with node 0.
	cut := uint64(reachFrac * float64(1<<16))
	inS := func(v int) bool {
		if v == 0 {
			return true
		}
		x := uint64(v) * 0x9E3779B97F4A7C15
		return (x>>32)%(1<<16) < cut
	}
	reach := 0
	for v := 0; v < n; v++ {
		if inS(v) {
			reach++
		}
	}
	s := make([]int32, 0, reach)
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
	// spreads across the id space. Layer l then holds the positions
	// l, l+layers, l+2*layers, ... of s, so a layer is a stride over s
	// and needs no list of its own.
	layerOf := func(k int) int {
		if k == 0 {
			return 0
		}
		return 1 + (k-1)%layers
	}
	layerLen := func(l int) int {
		if l == 0 {
			return 1
		}
		return (len(s)-1-l)/layers + 1
	}
	// pick draws a uniformly random position of layer l.
	pick := func(l int) int { return l + rng.intn(layerLen(l))*layers }

	// The backbone and extra edges are the reachable subgraph's edges.
	// They are staged as (source position, target node) pairs in a
	// buffer sized for their bound, one backbone in-edge plus at most
	// three extras per reachable node, with a per-source count in deg.
	type edge struct{ k, t int32 }
	pairs := make([]edge, 0, 4*len(s))
	deg := make([]int32, len(s))
	addEdge := func(k, t int) {
		pairs = append(pairs, edge{int32(k), s[t]})
		deg[k]++
	}

	// Backbone: every node of layer l gets one in-edge from a random
	// node of layer l-1, making BFS discover exactly one layer per level.
	for l := 1; l <= layers; l++ {
		for k := l; k < len(s); k += layers {
			addEdge(pick(l-1), k)
		}
	}
	// Extra reachable-subgraph edges: forward (next layer), same-layer,
	// and backward — the backward ones re-activate earlier waves in
	// worklist SSSP.
	for l := 1; l <= layers; l++ {
		for k := l; k < len(s); k += layers {
			if l < layers {
				addEdge(k, pick(l+1))
			}
			if rng.intn(2) == 0 {
				addEdge(k, pick(l))
			}
			if l > 1 && rng.intn(4) == 0 {
				addEdge(k, pick(l-1))
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
	for v, k := 0, 0; v < n; v++ {
		d := int32(avgDeg)
		if k < len(s) && int(s[k]) == v {
			d = max(deg[k], d)
			k++
		}
		g.RowPtr[v+1] = g.RowPtr[v] + d
	}
	total := int(g.RowPtr[n])
	g.Edges = make([]int32, total)
	clear(deg)
	for _, e := range pairs {
		g.Edges[g.RowPtr[s[e.k]]+deg[e.k]] = e.t
		deg[e.k]++
	}
	// Unreachable nodes get uniformly random fillers — pure footprint,
	// never read by the traversal. Reachable nodes' fillers target
	// same-or-earlier layers so the reachable set stays exactly S and
	// BFS levels stay one layer wide (an edge into an already-visited
	// wave never re-expands BFS, while it does re-activate waves in
	// worklist SSSP).
	for v, k := 0, 0; v < n; v++ {
		fill := g.Edges[g.RowPtr[v]:g.RowPtr[v+1]]
		if k < len(s) && int(s[k]) == v {
			l := layerOf(k)
			fill = fill[deg[k]:]
			k++
			for j := range fill {
				fill[j] = s[pick(rng.intn(l+1))]
			}
			continue
		}
		for j := range fill {
			fill[j] = int32(rng.intn(n))
		}
	}
	if weighted {
		g.Weights = make([]int32, total)
		for j := range g.Weights {
			g.Weights[j] = int32(rng.intn(15) + 1)
		}
	}
	return g
}

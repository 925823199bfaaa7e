package workloads

import (
	"fmt"
	"math"
)

// Graph is a directed graph in CSR form, the substrate for the bfs and
// sssp workloads.
type Graph struct {
	N       int
	RowPtr  []int32 // length N+1
	Edges   []int32 // length E: target node ids
	Weights []int32 // length E: positive edge weights (sssp); nil for the synthetic bfs graph
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Adj returns node v's adjacency slice.
func (g *Graph) Adj(v int) []int32 { return g.Edges[g.RowPtr[v]:g.RowPtr[v+1]] }

// AdjWeights returns node v's weight slice.
func (g *Graph) AdjWeights(v int) []int32 { return g.Weights[g.RowPtr[v]:g.RowPtr[v+1]] }

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: rowptr length %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || int(g.RowPtr[g.N]) != len(g.Edges) {
		return fmt.Errorf("graph: rowptr endpoints %d..%d, want 0..%d", g.RowPtr[0], g.RowPtr[g.N], len(g.Edges))
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: rowptr not monotone at %d", v)
		}
	}
	for _, t := range g.Edges {
		if t < 0 || int(t) >= g.N {
			return fmt.Errorf("graph: edge target %d out of range", t)
		}
	}
	if g.Weights != nil {
		if len(g.Weights) != len(g.Edges) {
			return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
		}
		for _, w := range g.Weights {
			if w <= 0 {
				return fmt.Errorf("graph: non-positive weight %d", w)
			}
		}
	}
	return nil
}

// BFSLevels runs host-side breadth-first search from node 0 and returns
// the frontier node list of every level. The device kernels replay
// these frontiers.
func BFSLevels(g *Graph) [][]int32 {
	visited := make([]bool, g.N)
	visited[0] = true
	frontier := []int32{0}
	var levels [][]int32
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int32
		for _, v := range frontier {
			for _, t := range g.Adj(int(v)) {
				if !visited[t] {
					visited[t] = true
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return levels
}

// SSSPRounds runs host-side Bellman-Ford from node 0 with a worklist and
// returns each round's active node list (capped at maxRounds) plus the
// final distances. Device kernel1 of round r relaxes exactly the edges
// of round r's worklist.
func SSSPRounds(g *Graph, maxRounds int) (rounds [][]int32, dist []int32) {
	const inf = math.MaxInt32
	dist = make([]int32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	work := []int32{0}
	inNext := make([]bool, g.N)
	for r := 0; r < maxRounds && len(work) > 0; r++ {
		rounds = append(rounds, work)
		var next []int32
		// Only the previous round's worklist entries are set.
		for _, v := range work {
			inNext[v] = false
		}
		for _, v := range work {
			adj := g.Adj(int(v))
			ws := g.AdjWeights(int(v))
			for k, t := range adj {
				if nd := dist[v] + ws[k]; nd < dist[t] {
					dist[t] = nd
					if !inNext[t] {
						inNext[t] = true
						next = append(next, t)
					}
				}
			}
		}
		work = next
	}
	return rounds, dist
}

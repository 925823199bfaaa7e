package workloads

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Graph I/O: the bfs and sssp workloads can run on user-supplied inputs
// instead of the synthetic generators. The format is a plain edge list,
// one of the lowest common denominators for graph datasets:
//
//	# comment lines start with '#' or '%'
//	<src> <dst> [weight]
//
// Node ids are 0-based integers below 2^26; a missing weight
// defaults to 1. The loader infers the node count from the largest id
// seen.

// maxNodes bounds the node count of a loaded graph: 2^26 nodes, 64 times
// the paper's 2^20-node inputs, as serve.MaxScale bounds the synthetic
// ones. The loader sizes the graph from the largest id, so without the
// bound a single edge could ask for gigabytes of CSR arrays.
const maxNodes = 1 << 26

// ParseEdgeList reads an edge-list graph from r.
func ParseEdgeList(r io.Reader) (*Graph, error) {
	type edge struct {
		src, dst, w int32
	}
	var edges []edge
	maxNode := int32(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graphio: line %d: want 'src dst [weight]', got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil || src < 0 {
			return nil, fmt.Errorf("graphio: line %d: bad source %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || dst < 0 {
			return nil, fmt.Errorf("graphio: line %d: bad target %q", lineNo, fields[1])
		}
		if src >= maxNodes || dst >= maxNodes {
			return nil, fmt.Errorf("graphio: line %d: node id %d at or above the limit of %d nodes",
				lineNo, max(src, dst), maxNodes)
		}
		w := int64(1)
		if len(fields) == 3 {
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("graphio: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		edges = append(edges, edge{int32(src), int32(dst), int32(w)})
		if int32(src) > maxNode {
			maxNode = int32(src)
		}
		if int32(dst) > maxNode {
			maxNode = int32(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("graphio: no edges in input")
	}
	n := int(maxNode) + 1
	if n < 2 {
		return nil, fmt.Errorf("graphio: graph needs at least 2 nodes")
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	g.Edges = make([]int32, 0, len(edges))
	g.Weights = make([]int32, 0, len(edges))
	cur := int32(0)
	for _, e := range edges {
		for cur < e.src {
			cur++
			g.RowPtr[cur+0] = int32(len(g.Edges))
		}
		g.Edges = append(g.Edges, e.dst)
		g.Weights = append(g.Weights, e.w)
		g.RowPtr[e.src+1] = int32(len(g.Edges))
	}
	for v := int(cur) + 1; v <= n; v++ {
		if g.RowPtr[v] < g.RowPtr[v-1] {
			g.RowPtr[v] = g.RowPtr[v-1]
		}
	}
	// Normalize: rowptr must be monotone even past the last source.
	for v := 1; v <= n; v++ {
		if g.RowPtr[v] < g.RowPtr[v-1] {
			g.RowPtr[v] = g.RowPtr[v-1]
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// BFSOnGraph builds a bfs workload instance over a caller-provided graph
// (e.g. loaded with ParseEdgeList). Levels are computed host-side from
// node 0, exactly as the synthetic factory does.
func BFSOnGraph(g *Graph) (*Built, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	levels := BFSLevels(g)
	if len(levels) < 2 {
		return nil, fmt.Errorf("workloads: node 0 reaches nothing; bfs would be empty")
	}
	return buildBFS(g, levels), nil
}

// SSSPOnGraph builds an sssp workload instance over a caller-provided
// weighted graph.
func SSSPOnGraph(g *Graph, maxRounds int) (*Built, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Weights == nil {
		return nil, fmt.Errorf("workloads: sssp needs edge weights")
	}
	rounds, _ := SSSPRounds(g, maxRounds)
	if len(rounds) < 2 {
		return nil, fmt.Errorf("workloads: node 0 relaxes nothing; sssp would be empty")
	}
	return buildSSSP(g, rounds), nil
}

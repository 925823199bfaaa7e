package workloads

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// The bfs and sssp graphs come from GenTraversalGraph; at reachFrac 1
// every node is reachable, which the BFS and SSSP tests below rely on.

func TestGenGraphValid(t *testing.T) {
	g := GenTraversalGraph(2000, 8, 10, 1.0, 1, true)
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if g.N != 2000 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() < 2000*8 {
		t.Fatalf("edges = %d, want >= %d", g.NumEdges(), 2000*8)
	}
}

func TestGenGraphDeterministic(t *testing.T) {
	a := GenTraversalGraph(500, 6, 5, 1.0, 42, true)
	b := GenTraversalGraph(500, 6, 5, 1.0, 42, true)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Weights[i] != b.Weights[i] {
			t.Fatalf("graphs differ at edge %d", i)
		}
	}
	c := GenTraversalGraph(500, 6, 5, 1.0, 43, true)
	if slices.Equal(a.Edges, c.Edges) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestBFSLevelsReachEverything(t *testing.T) {
	g := GenTraversalGraph(3000, 8, 12, 1.0, 11, false)
	levels := BFSLevels(g)
	if len(levels) == 0 || len(levels[0]) != 1 || levels[0][0] != 0 {
		t.Fatal("BFS does not start at node 0")
	}
	seen := map[int32]bool{}
	var total int
	for _, l := range levels {
		for _, v := range l {
			if seen[v] {
				t.Fatalf("node %d appears in two levels", v)
			}
			seen[v] = true
		}
		total += len(l)
	}
	// With reachFrac 1 every node sits in a layer, and the backbone
	// guarantees full reachability from node 0.
	if total != g.N {
		t.Fatalf("BFS reached %d of %d nodes", total, g.N)
	}
}

// Property: every node in level k>0 is adjacent to some node in level
// k-1 (valid level-synchronous BFS).
func TestBFSLevelsValidityProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%500 + 10
		g := GenTraversalGraph(n, 6, 4, 1.0, seed, false)
		levels := BFSLevels(g)
		prev := map[int32]bool{}
		for li, level := range levels {
			if li == 0 {
				prev[level[0]] = true
				continue
			}
			cur := map[int32]bool{}
			for _, v := range level {
				cur[v] = true
			}
			// Every v in this level must have an in-edge from prev.
			for _, v := range level {
				found := false
				for u := range prev {
					for _, t := range g.Adj(int(u)) {
						if t == v {
							found = true
							break
						}
					}
					if found {
						break
					}
				}
				if !found {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSSSPRoundsDistances(t *testing.T) {
	g := GenTraversalGraph(2000, 8, 10, 1.0, 5, true)
	rounds, dist := SSSPRounds(g, 50)
	if len(rounds) == 0 || rounds[0][0] != 0 {
		t.Fatal("SSSP does not start at node 0")
	}
	if dist[0] != 0 {
		t.Fatalf("dist[0] = %d", dist[0])
	}
	// Triangle inequality on every edge (converged run).
	for v := 0; v < g.N; v++ {
		if dist[v] == math.MaxInt32 {
			continue
		}
		adj, ws := g.Adj(v), g.AdjWeights(v)
		for k, t2 := range adj {
			if dist[t2] > dist[v]+ws[k] {
				t.Fatalf("edge %d->%d violates relaxation: %d > %d+%d", v, t2, dist[t2], dist[v], ws[k])
			}
		}
	}
}

func TestSSSPRoundsCapped(t *testing.T) {
	g := GenTraversalGraph(5000, 6, 20, 1.0, 9, true)
	rounds, _ := SSSPRounds(g, 3)
	if len(rounds) > 3 {
		t.Fatalf("rounds = %d, want <= 3", len(rounds))
	}
}

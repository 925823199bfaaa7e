package workloads

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

const sampleEdgeList = `
# toy graph
0 1 3
0 2
1 3 5
2 3 1
3 4 2
% another comment style
4 1 7
`

func TestParseEdgeList(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader(sampleEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 5 {
		t.Fatalf("N = %d, want 5", g.N)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
	adj := g.Adj(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Fatalf("adj(0) = %v", adj)
	}
	// Default weight is 1; explicit weights survive.
	if w := g.AdjWeights(0); w[0] != 3 || w[1] != 1 {
		t.Fatalf("weights(0) = %v", w)
	}
	if g.Degree(2) != 1 || g.Adj(2)[0] != 3 {
		t.Fatalf("adj(2) = %v", g.Adj(2))
	}
}

// Parsed adjacency lists come out sorted by target whatever the input
// order, giving the intra-node locality real CSR inputs have.
func TestParseEdgeListAdjacencySorted(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("2 9\n0 7\n2 1\n0 3\n2 5\n0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if adj := g.Adj(v); !slices.IsSorted(adj) {
			t.Fatalf("adjacency of %d not sorted: %v", v, adj)
		}
	}
	if got := g.Adj(2); !slices.Equal(got, []int32{1, 5, 9}) {
		t.Fatalf("adj(2) = %v, want [1 5 9]", got)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                     // no edges
		"0\n",                  // wrong arity
		"a b\n",                // bad source
		"0 b\n",                // bad target
		"0 1 0\n",              // non-positive weight
		"-1 2\n",               // negative id
		"0 1 2 3\n",            // too many fields
		"0 0\njunk here tooal", // arity again
	}
	for _, in := range cases {
		if _, err := ParseEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestParseEdgeListRejectsHugeIDs checks that a node id at or above
// maxNodes is refused, naming its line, before the loader sizes a graph
// from it: the 16-byte input below used to build a 100M-node graph.
func TestParseEdgeListRejectsHugeIDs(t *testing.T) {
	for _, in := range []string{"0 1\n1 100000000\n", "0 1\n1 2147483647\n", "0 1\n67108864 1\n"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseEdgeList(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: error %v, want a rejection of line 2", in, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%q: rejection allocated %d bytes, want under 1 MB", in, b)
		}
	}
}

func TestParseEdgeListGapNodes(t *testing.T) {
	// Sources with gaps: node 1 has no out-edges; rowptr must stay
	// monotone and empty adjacency must work.
	g, err := ParseEdgeList(strings.NewReader("0 3\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Degree(1) != 0 || g.Degree(3) != 0 {
		t.Fatalf("gap degrees: %d, %d", g.Degree(1), g.Degree(3))
	}
	if g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Fatal("real degrees wrong")
	}
}

func TestBFSOnGraph(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader(sampleEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BFSOnGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "bfs" || len(b.Kernels) == 0 {
		t.Fatalf("built: %+v", b)
	}
	if n := drainBuild(t, b); n == 0 {
		t.Fatal("no instructions")
	}
}

func TestSSSPOnGraph(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader(sampleEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SSSPOnGraph(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "sssp" || len(b.Kernels) == 0 {
		t.Fatalf("built: %+v", b)
	}
	if n := drainBuild(t, b); n == 0 {
		t.Fatal("no instructions")
	}
}

func TestOnGraphRejectsEmptyTraversal(t *testing.T) {
	// Node 0 has no out-edges: BFS from it reaches nothing.
	g, err := ParseEdgeList(strings.NewReader("1 2\n2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFSOnGraph(g); err == nil {
		t.Fatal("BFSOnGraph accepted unreachable root")
	}
	if _, err := SSSPOnGraph(g, 5); err == nil {
		t.Fatal("SSSPOnGraph accepted unreachable root")
	}
}

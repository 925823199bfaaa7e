package workloads

import (
	"testing"

	"uvmsim/internal/gpu"
)

func TestTraversalGraphValid(t *testing.T) {
	g := GenTraversalGraph(20000, 6, 10, 0.1, 7, true)
	if err := g.Validate(); err != nil {
		t.Fatalf("traversal graph invalid: %v", err)
	}
	if g.NumEdges() < 20000*6 {
		t.Fatalf("edges = %d, want >= %d", g.NumEdges(), 20000*6)
	}
}

func TestTraversalGraphDeterministic(t *testing.T) {
	a := GenTraversalGraph(5000, 4, 8, 0.1, 3, true)
	b := GenTraversalGraph(5000, 4, 8, 0.1, 3, true)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("graphs differ at edge %d", i)
		}
	}
}

func TestTraversalReachableFraction(t *testing.T) {
	n := 50000
	frac := 0.08
	g := GenTraversalGraph(n, 6, 15, frac, 9, false)
	levels := BFSLevels(g)
	var reached int
	for _, l := range levels {
		reached += len(l)
	}
	lo, hi := int(0.5*frac*float64(n)), int(2*frac*float64(n))
	if reached < lo || reached > hi {
		t.Fatalf("reached %d nodes, want within [%d,%d] (~%.0f%% of %d)",
			reached, lo, hi, frac*100, n)
	}
}

func TestTraversalLevelsAreLayers(t *testing.T) {
	const layers = 12
	g := GenTraversalGraph(30000, 6, layers, 0.1, 5, false)
	levels := BFSLevels(g)
	if len(levels) != layers+1 {
		t.Fatalf("levels = %d, want %d (root + one per layer)", len(levels), layers+1)
	}
	if len(levels[0]) != 1 || levels[0][0] != 0 {
		t.Fatal("level 0 is not {node 0}")
	}
	// Non-root levels must be thin and roughly uniform: no level may
	// hold more than 3x the mean.
	var total int
	for _, l := range levels[1:] {
		total += len(l)
	}
	mean := total / layers
	for i, l := range levels[1:] {
		if len(l) > 3*mean {
			t.Fatalf("level %d has %d nodes (mean %d); frontier not thin", i+1, len(l), mean)
		}
	}
}

func TestTraversalScatteredFrontiers(t *testing.T) {
	// Frontier node ids must be spread through the id space, not
	// clustered: the span of each level should cover most of [0, n).
	n := 40000
	g := GenTraversalGraph(n, 6, 10, 0.1, 11, false)
	levels := BFSLevels(g)
	for i, l := range levels[1:] {
		if len(l) < 10 {
			continue
		}
		min, max := l[0], l[0]
		for _, v := range l {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if int(max-min) < n/2 {
			t.Fatalf("level %d spans only [%d,%d] of %d ids", i+1, min, max, n)
		}
	}
}

func TestTraversalSSSPReactivation(t *testing.T) {
	// Backward and same-layer edges must make worklist SSSP re-activate
	// nodes: total work across rounds exceeds the reachable set size.
	g := GenTraversalGraph(30000, 6, 10, 0.1, 13, true)
	rounds, _ := SSSPRounds(g, 40)
	var work int
	for _, r := range rounds {
		work += len(r)
	}
	levels := BFSLevels(g)
	var reach int
	for _, l := range levels {
		reach += len(l)
	}
	if work <= reach {
		t.Fatalf("SSSP total work %d <= reachable %d; no re-activation", work, reach)
	}
}

func TestTraversalBadArgsPanic(t *testing.T) {
	cases := []struct {
		n, deg, layers int
		frac           float64
	}{
		{1, 6, 5, 0.1},
		{1000, 1, 5, 0.1},
		{1000, 6, 0, 0.1},
		{1000, 6, 5, 0},
		{1000, 6, 5, 1.5},
		{100, 6, 90, 0.1}, // reachable set smaller than layer count
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GenTraversalGraph(%d,%d,%d,%v) did not panic", c.n, c.deg, c.layers, c.frac)
				}
			}()
			GenTraversalGraph(c.n, c.deg, c.layers, c.frac, 1, true)
		}()
	}
}

func TestMaskedCSRDenseMaskSweep(t *testing.T) {
	// With an empty frontier, the program must still sweep the mask
	// densely (one read instruction per 32-node group) and nothing else.
	g := GenTraversalGraph(2048, 4, 4, 0.1, 1, false)
	bm := frontierBitmap(2048, nil)
	p := newMaskedCSR(g, 0x100000, 0x200000, 0x300000, 0x400000, 0, bm, 0, 2048, 4)
	var in gpu.Instr
	count := 0
	for p.Next(&in) {
		count++
		if in.Write {
			t.Fatal("mask sweep issued a write")
		}
		if in.NumAddrs != 32 {
			t.Fatalf("group of %d lanes", in.NumAddrs)
		}
		if in.Addrs[0] < 0x100000 || in.Addrs[0] >= 0x100000+2048*4 {
			t.Fatalf("mask read outside mask array: %#x", in.Addrs[0])
		}
	}
	if count != 2048/32 {
		t.Fatalf("mask sweep instrs = %d, want %d", count, 2048/32)
	}
}

func TestMaskedCSRActiveNodesWalkEdges(t *testing.T) {
	g := GenTraversalGraph(2048, 4, 4, 0.2, 1, false)
	levels := BFSLevels(g)
	bm := frontierBitmap(2048, levels[1])
	const (
		maskB = 0x1000000
		rowB  = 0x2000000
		edgeB = 0x3000000
		distB = 0x4000000
	)
	p := newMaskedCSR(g, maskB, rowB, edgeB, distB, 0, bm, 0, 2048, 4)
	var in gpu.Instr
	var maskReads, rowReads, edgeReads, distWrites int
	for p.Next(&in) {
		switch {
		case in.Addrs[0] >= maskB && in.Addrs[0] < rowB:
			maskReads++
		case in.Addrs[0] >= rowB && in.Addrs[0] < edgeB:
			rowReads++
		case in.Addrs[0] >= edgeB && in.Addrs[0] < distB:
			edgeReads++
			if in.Write {
				t.Fatal("edge read marked as write")
			}
		default:
			distWrites++
			if !in.Write {
				t.Fatal("dist update not marked as write")
			}
		}
	}
	if maskReads != 64 {
		t.Fatalf("mask reads = %d, want 64", maskReads)
	}
	if rowReads == 0 || edgeReads == 0 || distWrites == 0 {
		t.Fatalf("active-node work missing: row=%d edge=%d dist=%d", rowReads, edgeReads, distWrites)
	}
	if edgeReads != distWrites {
		t.Fatalf("edge read groups %d != dist write groups %d", edgeReads, distWrites)
	}
}

func TestMaskedCSRWeightsPhase(t *testing.T) {
	g := GenTraversalGraph(1024, 4, 4, 0.2, 2, true)
	levels := BFSLevels(g)
	bm := frontierBitmap(1024, levels[1])
	const weightB = 0x5000000
	p := newMaskedCSR(g, 0x1000000, 0x2000000, 0x3000000, 0x4000000, weightB, bm, 0, 1024, 4)
	var in gpu.Instr
	weightReads := 0
	for p.Next(&in) {
		if in.Addrs[0] >= weightB && in.Addrs[0] < weightB+uint64(g.NumEdges())*4 {
			weightReads++
		}
	}
	if weightReads == 0 {
		t.Fatal("weight phase never emitted")
	}
}

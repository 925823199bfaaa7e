package workloads

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
)

// graphDigests pins the FNV-64a of the traversal graphs at the bfs and
// sssp factories' parameters, at paper scale and at scale 0.05, all
// generated with weights (the bfs factory builds the same graph without
// them). The values were recorded before GenTraversalGraph wrote
// filler edges in place and before it sized its scratch to the reachable
// set, so they hold the generator to the same RNG draw order and the
// same per-node edge order (backbone and extra edges before fillers).
var graphDigests = []struct {
	name                  string
	avgDeg, layers        int
	seed                  uint64
	scale                 float64
	rowPtr, edges, weight string
}{
	{"bfs", 6, 25, 0xBF5, 1, "b809403ecd3944a8", "1f7de61ab94c9df8", "7631e94bc0169d75"},
	{"bfs", 6, 25, 0xBF5, 0.05, "5f12a049a6b722a1", "4ef1528b36a0ccb9", "095ce90a2eac9937"},
	{"sssp", 3, 20, 0x55B, 1, "4960fd3efa7b4581", "c0a700c5a3655626", "9b39a92f08d46cd8"},
	{"sssp", 3, 20, 0x55B, 0.05, "be9b04d261752e0a", "e2e3cdb818557cac", "4f5f79d00ba7d32f"},
}

// fnv32s returns the FNV-64a of xs as little-endian 32-bit words.
func fnv32s(xs []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestTraversalGraphDigests(t *testing.T) {
	for _, c := range graphDigests {
		n := scaleElems(1<<20, c.scale)
		g := GenTraversalGraph(n, c.avgDeg, c.layers, 0.08, c.seed, true)
		got := [3]string{fnv32s(g.RowPtr), fnv32s(g.Edges), fnv32s(g.Weights)}
		want := [3]string{c.rowPtr, c.edges, c.weight}
		if got != want {
			t.Errorf("%s scale %g: (rowptr, edges, weights) digests %q, want %q", c.name, c.scale, got, want)
		}
	}
}

// TestTraversalGraphUnweightedDigests holds the bfs graph, which is
// built without weights, to the same RowPtr and Edges digests as the
// weighted graph at the bfs rows' parameters.
func TestTraversalGraphUnweightedDigests(t *testing.T) {
	for _, c := range graphDigests {
		if c.name != "bfs" {
			continue
		}
		n := scaleElems(1<<20, c.scale)
		g := GenTraversalGraph(n, c.avgDeg, c.layers, 0.08, c.seed, false)
		if g.Weights != nil {
			t.Fatalf("bfs scale %g: unweighted graph has %d weights", c.scale, len(g.Weights))
		}
		got := [2]string{fnv32s(g.RowPtr), fnv32s(g.Edges)}
		if want := [2]string{c.rowPtr, c.edges}; got != want {
			t.Errorf("bfs scale %g: (rowptr, edges) digests %q, want %q", c.scale, got, want)
		}
	}
}

// TestTraversalGraphFootprint bounds what GenTraversalGraph allocates in
// total at the paper-scale bfs (unweighted) and sssp (weighted)
// parameters: at most 1.25x the bytes of the graph it returns. The
// scratch is sized to the reachable set (~8% of the nodes), so a
// node-sized scratch array coming back pushes the sssp graph past the
// bound.
func TestTraversalGraphFootprint(t *testing.T) {
	for _, c := range graphDigests {
		if c.scale != 1 {
			continue
		}
		weighted := c.name == "sssp"
		n := scaleElems(1<<20, c.scale)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := GenTraversalGraph(n, c.avgDeg, c.layers, 0.08, c.seed, weighted)
		runtime.ReadMemStats(&after)
		out := 4 * uint64(len(g.RowPtr)+len(g.Edges)+len(g.Weights))
		total := after.TotalAlloc - before.TotalAlloc
		ratio := float64(total) / float64(out)
		t.Logf("%s: allocated %.1f MB for a %.1f MB graph (%.3fx)", c.name, float64(total)/1e6, float64(out)/1e6, ratio)
		if ratio > 1.25 {
			t.Errorf("%s: GenTraversalGraph allocated %d bytes for a %d-byte graph (%.3fx), want at most 1.25x",
				c.name, total, out, ratio)
		}
	}
}

// Package prefetch implements the CUDA driver's tree-based neighborhood
// prefetcher (paper §II-B, Ganguly et al. ISCA'19) plus two simpler
// ablation prefetchers.
//
// Every 2MB chunk of a managed allocation is a full binary tree whose
// leaves are 64KB basic blocks (32 leaves for a full chunk; a
// power-of-two count for the trailing partial chunk). When a basic block
// migrates, leaf occupancy propagates toward the root; any non-leaf node
// whose subtree occupancy becomes strictly greater than 50% triggers a
// prefetch of all the empty leaves below it, balancing its two children.
// Walking upward from the faulting leaf makes the effective prefetch size
// adaptive, from 64KB up to 1MB.
//
// Leaf sets are uint64 bitmasks: the tree's occupancy, the extra leaves
// OnMigrate trips, and the set a Chunk migrates on a fault. A fault
// therefore allocates nothing.
package prefetch

import (
	"fmt"
	"math/bits"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

// Tree tracks 64KB-leaf occupancy for one chunk.
type Tree struct {
	n      int    // number of leaves, power of two, >= 1
	leaves uint64 // occupancy bitmap (n <= 64; chunks have at most 32 leaves)
}

// NewTree creates a tree over n leaves; n must be a power of two in
// [1, 64].
func NewTree(n int) *Tree {
	if n < 1 || n > 64 || n&(n-1) != 0 {
		panic(fmt.Sprintf("prefetch: invalid leaf count %d", n))
	}
	return &Tree{n: n}
}

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.n }

// Occupied reports whether leaf i is resident.
func (t *Tree) Occupied(i int) bool {
	t.check(i)
	return t.leaves&(1<<uint(i)) != 0
}

// OccupiedCount returns the number of resident leaves.
func (t *Tree) OccupiedCount() int { return bits.OnesCount64(t.leaves) }

// Full reports whether every leaf is resident. The 2MB eviction policy
// only considers fully populated chunks (paper §II-C).
func (t *Tree) Full() bool {
	if t.n == 64 {
		return t.leaves == ^uint64(0)
	}
	return t.leaves == 1<<uint(t.n)-1
}

// MarkOccupied sets leaf i resident without running the prefetch
// heuristic (used when landing prefetched blocks and by tests).
func (t *Tree) MarkOccupied(i int) {
	t.check(i)
	t.leaves |= 1 << uint(i)
}

// MarkEmpty clears leaf i (64KB-granularity eviction).
func (t *Tree) MarkEmpty(i int) {
	t.check(i)
	t.leaves &^= 1 << uint(i)
}

// Clear empties the whole tree (2MB-granularity eviction).
func (t *Tree) Clear() { t.leaves = 0 }

func (t *Tree) check(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("prefetch: leaf %d out of range [0,%d)", i, t.n))
	}
}

// spanMask returns the leaf mask of the span [lo, lo+span).
func spanMask(lo, span int) uint64 {
	if span == 64 {
		return ^uint64(0)
	}
	return (1<<uint(span) - 1) << uint(lo)
}

// countRange returns the number of occupied leaves in [lo, lo+span).
func (t *Tree) countRange(lo, span int) int {
	return bits.OnesCount64(t.leaves & spanMask(lo, span))
}

// OnMigrate marks leaf i resident and runs the tree heuristic: walking
// from the leaf's parent toward the root, any node whose occupancy is
// strictly greater than half its span prefetches every empty leaf under
// it. The returned mask holds the extra leaves to prefetch (already
// marked occupied); it is zero when no node tripped.
func (t *Tree) OnMigrate(i int) uint64 {
	t.check(i)
	t.leaves |= 1 << uint(i)
	var extra uint64
	for span := 2; span <= t.n; span *= 2 {
		lo := i / span * span
		occ := t.countRange(lo, span)
		if occ*2 <= span || occ == span {
			continue
		}
		mask := spanMask(lo, span)
		extra |= mask &^ t.leaves
		t.leaves |= mask
	}
	return extra
}

// Chunk ties a Tree to the prefetcher kind chosen in the configuration
// and answers the single question the UVM driver asks on a far-fault:
// which basic blocks of this chunk should migrate together? The tree and
// the buffer OnFault answers in are held inline, so a fault allocates
// nothing.
type Chunk struct {
	kind config.PrefetcherKind
	tree Tree
	out  [memunits.BlocksPerChunk]int
}

// NewChunk creates the per-chunk prefetch state for a chunk of n 64KB
// blocks; n must be a power of two in [1, 32].
func NewChunk(kind config.PrefetcherKind, n int) *Chunk {
	if n > memunits.BlocksPerChunk {
		panic(fmt.Sprintf("prefetch: chunk of %d blocks exceeds %d", n, memunits.BlocksPerChunk))
	}
	return &Chunk{kind: kind, tree: *NewTree(n)}
}

// Tree exposes the underlying occupancy tree (for eviction bookkeeping).
func (c *Chunk) Tree() *Tree { return &c.tree }

// OnFault records that block i faulted and must migrate. It returns the
// complete ascending list of block indices to migrate now, always
// including i itself; all returned blocks are marked occupied. The slice
// is the chunk's and valid until its next OnFault.
func (c *Chunk) OnFault(i int) []int {
	t := &c.tree
	t.check(i)
	mask := uint64(1) << uint(i)
	switch c.kind {
	case config.PrefetchNone:
	case config.PrefetchSequential:
		if j := i + 1; j < t.n && !t.Occupied(j) {
			mask |= 1 << uint(j)
		}
	case config.PrefetchTree:
		mask |= t.OnMigrate(i)
	default:
		panic(fmt.Sprintf("prefetch: unknown kind %v", c.kind))
	}
	t.leaves |= mask
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		c.out[n] = bits.TrailingZeros64(m)
		n++
	}
	return c.out[:n]
}

package workloads

import (
	"math/bits"
	"unsafe"

	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
)

// maskedCSRProgram is the warp program of Rodinia-style graph kernels
// (bfs kernel1 and sssp kernel1): every iteration launches one thread
// per node, so the kernel *densely* sweeps the small mask array over the
// whole node range, and only the active (frontier) nodes walk their
// adjacency — a *sparse* excursion into the large edges/weights arrays
// followed by divergent scatter writes into the distance array.
//
// This is exactly the hot/cold split the paper characterizes in §III-B:
// node-sized arrays are dense, repetitive and hot; edge-sized arrays are
// sparse, input-dependent and cold.
type maskedCSRProgram struct {
	g          *Graph
	maskBase   memunits.Addr
	rowPtrBase memunits.Addr
	edgeBase   memunits.Addr
	distBase   memunits.Addr
	weightBase memunits.Addr // zero disables the weight read (bfs)
	active     []uint64      // shared frontier bitmap, one bit per node
	hi         int           // end of this warp's node range
	compute    uint64

	group int // start node of the current 32-node group
	phase int // 0 = dense mask read, 1 = rowptr gather, 2 = edge drain
	// pending holds the group's active nodes whose edges are not yet
	// drained, as bits relative to group.
	pending  uint64
	edgePos  int32
	edgeHi   int32
	subPhase int // 0 read edges, 1 read weights, 2 scatter-write dist
	groupLen int
}

var maskedCSRPool programPool[maskedCSRProgram, [(linePair - unsafe.Sizeof(maskedCSRProgram{})%linePair) % linePair]byte]

// newMaskedCSR builds the program for the contiguous node range [lo,hi).
func newMaskedCSR(g *Graph, mask, rowPtr, edges, dist, weights memunits.Addr, active []uint64, lo, hi int, compute uint64) *maskedCSRProgram {
	p := maskedCSRPool.get()
	*p = maskedCSRProgram{
		g: g, maskBase: mask, rowPtrBase: rowPtr, edgeBase: edges,
		distBase: dist, weightBase: weights, active: active,
		hi: hi, compute: compute, group: lo,
	}
	return p
}

// Release implements gpu.Releaser.
func (p *maskedCSRProgram) Release() {
	*p = maskedCSRProgram{}
	maskedCSRPool.put(p)
}

// frontierBitmap builds the shared active bitmap for a frontier.
func frontierBitmap(n int, frontier []int32) []uint64 {
	bm := make([]uint64, (n+63)/64)
	for _, v := range frontier {
		bm[v/64] |= 1 << (uint(v) % 64)
	}
	return bm
}

// activeWindow returns the active bits of nodes [from, to), to-from <
// 64, as bits relative to from. The window reads two bitmap words when
// the range crosses a word boundary.
func (p *maskedCSRProgram) activeWindow(from, to int) uint64 {
	wi, off := from/64, uint(from%64)
	n := uint(to - from)
	w := p.active[wi] >> off
	if off+n > 64 {
		w |= p.active[wi+1] << (64 - off)
	}
	return w & (1<<n - 1)
}

// Next implements gpu.WarpProgram.
//
//sim:hotpath
func (p *maskedCSRProgram) Next(in *gpu.Instr) bool {
	for {
		if p.group >= p.hi {
			return false
		}
		gEnd := p.group + lanes
		if gEnd > p.hi {
			gEnd = p.hi
		}
		switch p.phase {
		case 0:
			// Dense read of the mask for every node of the group: the
			// hot, repetitive component present in every iteration.
			in.Write = false
			in.Compute = p.compute
			in.NumAddrs = gEnd - p.group
			in.Stride = elemSize
			in.Addrs[0] = p.maskBase + uint64(p.group)*elemSize
			p.phase = 1
			return true
		case 1:
			// Gather the row pointers of the group's active nodes.
			p.pending = p.activeWindow(p.group, gEnd)
			if p.pending == 0 {
				p.group = gEnd
				p.phase = 0
				continue
			}
			n := 0
			for b := p.pending; b != 0; b &= b - 1 {
				v := p.group + bits.TrailingZeros64(b)
				in.Addrs[n] = p.rowPtrBase + uint64(v)*elemSize
				n++
			}
			in.Write = false
			in.Compute = 1
			in.NumAddrs = n
			in.Stride = 0
			p.phase = 2
			p.nextNode()
			return true
		default:
			if p.edgePos >= p.edgeHi {
				if p.pending == 0 {
					p.group = gEnd
					p.phase = 0
					continue
				}
				p.nextNode()
				continue
			}
			n := int(p.edgeHi - p.edgePos)
			if n > lanes {
				n = lanes
			}
			switch p.subPhase {
			case 0: // dense read of edge targets (the cold array)
				p.groupLen = n
				in.Write = false
				in.Compute = 0
				in.NumAddrs = n
				in.Stride = elemSize
				in.Addrs[0] = p.edgeBase + uint64(p.edgePos)*elemSize
				if p.weightBase != 0 {
					p.subPhase = 1
				} else {
					p.subPhase = 2
				}
				return true
			case 1: // dense read of edge weights (sssp)
				in.Write = false
				in.Compute = 0
				in.NumAddrs = p.groupLen
				in.Stride = elemSize
				in.Addrs[0] = p.weightBase + uint64(p.edgePos)*elemSize
				p.subPhase = 2
				return true
			default: // divergent scatter write into the hot dist array
				in.Write = true
				in.Compute = 2
				in.NumAddrs = p.groupLen
				in.Stride = 0
				for i := 0; i < p.groupLen; i++ {
					t := p.g.Edges[p.edgePos+int32(i)]
					in.Addrs[i] = p.distBase + uint64(t)*elemSize
				}
				p.edgePos += int32(p.groupLen)
				p.subPhase = 0
				return true
			}
		}
	}
}

// nextNode pops the group's next pending active node and positions the
// edge cursor on its adjacency.
func (p *maskedCSRProgram) nextNode() {
	v := p.group + bits.TrailingZeros64(p.pending)
	p.pending &= p.pending - 1
	p.edgePos = p.g.RowPtr[v]
	p.edgeHi = p.g.RowPtr[v+1]
	p.subPhase = 0
}

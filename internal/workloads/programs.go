package workloads

import (
	"sync"
	"unsafe"

	"uvmsim/internal/alloc"
	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
)

// elemSize is the element width of every synthetic array (float32/int32).
const elemSize = 4

// lanes is the number of elements one memory instruction covers.
const lanes = gpu.MaxLanes

// operand describes one array touched per element group by a stream
// program.
type operand struct {
	base  memunits.Addr
	write bool
}

// readOp and writeOp build operands from an allocation at an element
// offset.
func readOp(a *alloc.Allocation) operand  { return operand{base: a.Base} }
func writeOp(a *alloc.Allocation) operand { return operand{base: a.Base, write: true} }

// programPool recycles released warp programs of type T. A Built is
// shared by concurrent cells, so the pool must be goroutine-safe; a
// sync.Pool keeps each cell's programs in its own P's cache. Programs
// come back from the GPU through gpu.Releaser when their warp retires,
// so a kernel allocates programs for its peak resident warps, not for
// every warp it runs. Every constructor overwrites the whole object, so
// no state survives from a program's previous warp.
//
// Each program lives in a slot[T, Pad] whose padding rounds it up to a
// multiple of 128 bytes. Those sizes are malloc size classes, so every
// slot starts on a 128-byte boundary and no two programs share a cache
// line or the line pair the adjacent-line prefetcher fetches together
// (sync.Pool pads its per-P state to 128 bytes for the same reason). A
// pooled program lives for the whole run and now and then moves to
// another P's pool, so without the padding the live programs of two
// concurrent cells end up side by side, and the Next calls that write
// them on every instruction bounce their lines between cores. With two
// cells on two cores, that made streamProgram.Next about twice as slow.
type programPool[T, Pad any] struct{ p sync.Pool }

// slot is a program padded to whole 128-byte line pairs.
type slot[T, Pad any] struct {
	v T
	_ Pad
}

// get returns a recycled program, or a new one when the pool is empty.
func (q *programPool[T, Pad]) get() *T {
	if v, ok := q.p.Get().(*T); ok {
		return v
	}
	return &new(slot[T, Pad]).v
}

// put returns a released program to the pool.
func (q *programPool[T, Pad]) put(v *T) { q.p.Put(v) }

// linePair is the unit programs are padded to.
const linePair = 128

var (
	streamPool  programPool[streamProgram, [(linePair - unsafe.Sizeof(streamProgram{})%linePair) % linePair]byte]
	gatherPool  programPool[gatherProgram, [(linePair - unsafe.Sizeof(gatherProgram{})%linePair) % linePair]byte]
	stridedPool programPool[stridedProgram, [(linePair - unsafe.Sizeof(stridedProgram{})%linePair) % linePair]byte]
	seqPool     programPool[seqProgram, [(linePair - unsafe.Sizeof(seqProgram{})%linePair) % linePair]byte]
)

// streamProgram is a dense sequential sweep: for each group of 32
// consecutive elements in [lo, hi), it issues one instruction per
// operand (same element indices in each array), with compute cycles
// attached to the first instruction of each group.
type streamProgram struct {
	ops     []operand
	lo, hi  int // element index range
	compute uint64
	pos     int
	opIdx   int
}

// newStream builds a stream over elements [lo, hi).
func newStream(ops []operand, lo, hi int, compute uint64) *streamProgram {
	p := streamPool.get()
	*p = streamProgram{ops: ops, lo: lo, hi: hi, compute: compute, pos: lo}
	return p
}

// Release implements gpu.Releaser.
func (p *streamProgram) Release() {
	*p = streamProgram{}
	streamPool.put(p)
}

// Next implements gpu.WarpProgram.
//
//sim:hotpath
func (p *streamProgram) Next(in *gpu.Instr) bool {
	if p.pos >= p.hi {
		return false
	}
	end := p.pos + lanes
	if end > p.hi {
		end = p.hi
	}
	op := p.ops[p.opIdx]
	in.Write = op.write
	in.NumAddrs = end - p.pos
	in.Stride = elemSize
	in.Addrs[0] = op.base + uint64(p.pos)*elemSize
	if p.opIdx == 0 {
		in.Compute = p.compute
	} else {
		in.Compute = 0
	}
	p.opIdx++
	if p.opIdx == len(p.ops) {
		p.opIdx = 0
		p.pos = end
	}
	return true
}

// gatherProgram issues gather/scatter instructions: each group of up to
// 32 indices from idx produces one instruction per operand whose lane
// addresses are table[idx[k]]. Used for random access (ra) and
// frontier-driven neighbor updates.
type gatherProgram struct {
	ops     []operand // bases are table bases; indices apply to each
	idx     []int32
	compute uint64
	pos     int
	opIdx   int
}

func newGather(ops []operand, idx []int32, compute uint64) *gatherProgram {
	p := gatherPool.get()
	*p = gatherProgram{ops: ops, idx: idx, compute: compute}
	return p
}

// Release implements gpu.Releaser.
func (p *gatherProgram) Release() {
	*p = gatherProgram{}
	gatherPool.put(p)
}

// Next implements gpu.WarpProgram.
//
//sim:hotpath
func (p *gatherProgram) Next(in *gpu.Instr) bool {
	if p.pos >= len(p.idx) {
		return false
	}
	end := p.pos + lanes
	if end > len(p.idx) {
		end = len(p.idx)
	}
	op := p.ops[p.opIdx]
	in.Write = op.write
	in.NumAddrs = end - p.pos
	in.Stride = 0
	for i := p.pos; i < end; i++ {
		in.Addrs[i-p.pos] = op.base + uint64(p.idx[i])*elemSize
	}
	if p.opIdx == 0 {
		in.Compute = p.compute
	} else {
		in.Compute = 0
	}
	p.opIdx++
	if p.opIdx == len(p.ops) {
		p.opIdx = 0
		p.pos = end
	}
	return true
}

// seqProgram chains several programs, running each to completion.
type seqProgram struct {
	progs []gpu.WarpProgram
	cur   int
}

// chainPrograms chains progs; append more parts to the result's progs
// before its first Next. The parts are copied into the program's own
// (recycled) slice, so the variadic argument does not escape.
func chainPrograms(progs ...gpu.WarpProgram) *seqProgram {
	p := seqPool.get()
	p.progs = append(p.progs[:0], progs...)
	p.cur = 0
	return p
}

// Release implements gpu.Releaser: it releases the parts that are
// Releasers and keeps the part slice for the program's next use.
func (p *seqProgram) Release() {
	for i, q := range p.progs {
		if r, ok := q.(gpu.Releaser); ok {
			r.Release()
		}
		p.progs[i] = nil
	}
	p.progs = p.progs[:0]
	seqPool.put(p)
}

// Next implements gpu.WarpProgram.
//
//sim:hotpath
func (p *seqProgram) Next(in *gpu.Instr) bool {
	for p.cur < len(p.progs) {
		if p.progs[p.cur].Next(in) {
			return true
		}
		p.cur++
	}
	return false
}

// stridedProgram sweeps rows of a row-major 2D array: for each row in
// [rowLo, rowHi), it covers columns [colLo, colHi) in 32-element groups,
// one instruction per operand. Rows are rowStride elements apart, which
// is what spreads wavefront traversals (nw) across pages.
type stridedProgram struct {
	ops            []operand
	rowLo, rowHi   int
	colLo, colHi   int
	rowStride      int
	compute        uint64
	row, col, opIx int
}

func newStrided(ops []operand, rowLo, rowHi, colLo, colHi, rowStride int, compute uint64) *stridedProgram {
	p := stridedPool.get()
	*p = stridedProgram{
		ops: ops, rowLo: rowLo, rowHi: rowHi, colLo: colLo, colHi: colHi,
		rowStride: rowStride, compute: compute, row: rowLo, col: colLo,
	}
	return p
}

// Release implements gpu.Releaser.
func (p *stridedProgram) Release() {
	*p = stridedProgram{}
	stridedPool.put(p)
}

// Next implements gpu.WarpProgram.
//
//sim:hotpath
func (p *stridedProgram) Next(in *gpu.Instr) bool {
	if p.row >= p.rowHi || p.colLo >= p.colHi {
		return false
	}
	end := p.col + lanes
	if end > p.colHi {
		end = p.colHi
	}
	op := p.ops[p.opIx]
	in.Write = op.write
	in.NumAddrs = end - p.col
	in.Stride = elemSize
	in.Addrs[0] = op.base + uint64(p.row*p.rowStride+p.col)*elemSize
	if p.opIx == 0 {
		in.Compute = p.compute
	} else {
		in.Compute = 0
	}
	p.opIx++
	if p.opIx == len(p.ops) {
		p.opIx = 0
		p.col = end
		if p.col >= p.colHi {
			p.col = p.colLo
			p.row++
		}
	}
	return true
}

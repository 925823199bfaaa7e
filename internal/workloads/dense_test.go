package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"unsafe"

	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
)

// streamDigests are the instruction-stream digests of every workload at
// testScale, recorded when every generator still wrote per-lane
// addresses. Dense (Stride) instructions must expand to the same
// streams.
var streamDigests = map[string]string{
	"backprop":     "daba571263984f6a",
	"fdtd":         "c369812d5699ce6f",
	"hotspot":      "c87c696d56196f2d",
	"srad":         "c9f513b1207ad85e",
	"bfs":          "cde2b30aee093304",
	"nw":           "e162ab276a5ecc4d",
	"ra":           "e4fbab150a752458",
	"sssp":         "1bd809272349c5df",
	"spatter":      "04465645ced6b58c",
	"pointerchase": "d818d35cd57e72e2",
}

// streamDigest hashes the expanded (Write, Compute, NumAddrs, Addr(0..n))
// stream of every warp of every kernel, with a marker after each warp.
// Each warp reuses one Instr across Next calls, as the GPU does, and its
// lanes are poisoned between calls, as the GPU's coalescer overwrites
// them: a program that reads the previous call's Addrs changes its
// digest.
func streamDigest(b *Built) string {
	h := sha256.New()
	for _, k := range b.Kernels {
		hashKernel(h, k, false)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// addrPoison fills an Instr's lanes between Next calls.
const addrPoison memunits.Addr = 0xdead_beef_dead_beef

// hashKernel writes kernel k's expanded instruction stream to h in
// warp order, poisoning the lanes before every Next. With release set,
// it builds each CTA's programs together, as the GPU runs a CTA's warps
// side by side, and releases every Releaser among them once the CTA
// has drained, so the kernel's programs come from and go back to the
// recycling pools.
func hashKernel(h hash.Hash, k gpu.Kernel, release bool) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	progs := make([]gpu.WarpProgram, k.WarpsPerCTA)
	for cta := 0; cta < k.CTAs; cta++ {
		for w := range progs {
			progs[w] = k.NewWarp(cta, w)
		}
		for _, p := range progs {
			var in gpu.Instr
			for {
				for i := range in.Addrs {
					in.Addrs[i] = addrPoison
				}
				if !p.Next(&in) {
					break
				}
				var wr uint64
				if in.Write {
					wr = 1
				}
				put(wr)
				put(in.Compute)
				put(uint64(in.NumAddrs))
				for i := 0; i < in.NumAddrs; i++ {
					put(in.Addr(i))
				}
			}
			put(^uint64(0))
		}
		if release {
			for _, p := range progs {
				if r, ok := p.(gpu.Releaser); ok {
					r.Release()
				}
			}
		}
	}
}

func TestInstructionStreamDigests(t *testing.T) {
	for _, name := range AllNames() {
		want, ok := streamDigests[name]
		if !ok {
			t.Errorf("%s: no recorded digest", name)
			continue
		}
		if got := streamDigest(MustGet(name)(testScale)); got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}

// perNodeCSR is the reference maskedCSRProgram: it tests the frontier
// one node at a time and writes every lane address.
type perNodeCSR struct {
	g          *Graph
	maskBase   memunits.Addr
	rowPtrBase memunits.Addr
	edgeBase   memunits.Addr
	distBase   memunits.Addr
	weightBase memunits.Addr
	active     []uint64
	hi         int
	compute    uint64

	group    int
	phase    int
	node     int
	edgePos  int32
	edgeHi   int32
	subPhase int
	groupLen int
}

func (p *perNodeCSR) isActive(v int) bool {
	return p.active[v/64]&(1<<(uint(v)%64)) != 0
}

func (p *perNodeCSR) advanceNode(gEnd int) {
	p.node++
	for p.node < gEnd && !p.isActive(p.node) {
		p.node++
	}
	if p.node < gEnd {
		p.edgePos = p.g.RowPtr[p.node]
		p.edgeHi = p.g.RowPtr[p.node+1]
		p.subPhase = 0
	}
}

func (p *perNodeCSR) Next(in *gpu.Instr) bool {
	for {
		if p.group >= p.hi {
			return false
		}
		gEnd := min(p.group+lanes, p.hi)
		switch p.phase {
		case 0:
			in.Write, in.Compute, in.NumAddrs = false, p.compute, gEnd-p.group
			for v := p.group; v < gEnd; v++ {
				in.Addrs[v-p.group] = p.maskBase + uint64(v)*elemSize
			}
			p.phase = 1
			return true
		case 1:
			n := 0
			for v := p.group; v < gEnd; v++ {
				if p.isActive(v) {
					in.Addrs[n] = p.rowPtrBase + uint64(v)*elemSize
					n++
				}
			}
			if n == 0 {
				p.group, p.phase = gEnd, 0
				continue
			}
			in.Write, in.Compute, in.NumAddrs = false, 1, n
			p.phase = 2
			p.node = p.group - 1
			p.advanceNode(gEnd)
			return true
		default:
			if p.node >= gEnd {
				p.group, p.phase = gEnd, 0
				continue
			}
			if p.edgePos >= p.edgeHi {
				p.advanceNode(gEnd)
				continue
			}
			n := min(int(p.edgeHi-p.edgePos), lanes)
			switch p.subPhase {
			case 0:
				p.groupLen = n
				in.Write, in.Compute, in.NumAddrs = false, 0, n
				for i := 0; i < n; i++ {
					in.Addrs[i] = p.edgeBase + uint64(p.edgePos+int32(i))*elemSize
				}
				p.subPhase = 2
				if p.weightBase != 0 {
					p.subPhase = 1
				}
				return true
			case 1:
				in.Write, in.Compute, in.NumAddrs = false, 0, p.groupLen
				for i := 0; i < p.groupLen; i++ {
					in.Addrs[i] = p.weightBase + uint64(p.edgePos+int32(i))*elemSize
				}
				p.subPhase = 2
				return true
			default:
				in.Write, in.Compute, in.NumAddrs = true, 2, p.groupLen
				for i := 0; i < p.groupLen; i++ {
					in.Addrs[i] = p.distBase + uint64(p.g.Edges[p.edgePos+int32(i)])*elemSize
				}
				p.edgePos += int32(p.groupLen)
				p.subPhase = 0
				return true
			}
		}
	}
}

// randomCSR builds an n-node graph whose degrees mix empty nodes, short
// lists and lists longer than a warp.
func randomCSR(rng *xorshift64, n int) *Graph {
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		deg := 0
		switch r := rng.intn(10); {
		case r < 3:
		case r < 9:
			deg = 1 + rng.intn(8)
		default:
			deg = 30 + rng.intn(60)
		}
		for i := 0; i < deg; i++ {
			g.Edges = append(g.Edges, int32(rng.intn(n)))
		}
		g.RowPtr[v+1] = int32(len(g.Edges))
	}
	return g
}

// TestMaskedCSRMatchesPerNodeScan checks the word-window frontier scan
// against the per-node reference on random graphs, frontiers and node
// ranges, including ranges that start mid-word and ranges that end in
// the bitmap's last, partial word.
func TestMaskedCSRMatchesPerNodeScan(t *testing.T) {
	const (
		maskB, rowB, edgeB, distB, weightB = 0x1000000, 0x2000000, 0x3000000, 0x4000000, 0x5000000
	)
	rng := newRNG(0xC5A)
	for c := 0; c < 300; c++ {
		n := 1 + rng.intn(700)
		g := randomCSR(rng, n)
		density := []int{0, 2, 10, 50, 100}[c%5]
		var frontier []int32
		for v := 0; v < n; v++ {
			if rng.intn(100) < density {
				frontier = append(frontier, int32(v))
			}
		}
		bm := frontierBitmap(n, frontier)
		lo := rng.intn(n)
		hi := n // ends in the bitmap's last word
		if c%3 != 0 {
			hi = lo + 1 + rng.intn(n-lo)
		}
		var weights memunits.Addr
		if c%2 == 1 {
			weights = weightB
		}
		got := newMaskedCSR(g, maskB, rowB, edgeB, distB, weights, bm, lo, hi, 4)
		want := &perNodeCSR{g: g, maskBase: maskB, rowPtrBase: rowB, edgeBase: edgeB,
			distBase: distB, weightBase: weights, active: bm, hi: hi, compute: 4, group: lo}
		var gi, wi gpu.Instr
		for k := 0; ; k++ {
			okG, okW := got.Next(&gi), want.Next(&wi)
			if okG != okW {
				t.Fatalf("case %d [%d,%d) of %d: instr %d: stream ends differ (word-window %v, per-node %v)", c, lo, hi, n, k, okG, okW)
			}
			if !okG {
				break
			}
			if gi.Write != wi.Write || gi.Compute != wi.Compute || gi.NumAddrs != wi.NumAddrs {
				t.Fatalf("case %d [%d,%d) of %d: instr %d: (write %v, compute %d, lanes %d), want (%v, %d, %d)",
					c, lo, hi, n, k, gi.Write, gi.Compute, gi.NumAddrs, wi.Write, wi.Compute, wi.NumAddrs)
			}
			for i := 0; i < gi.NumAddrs; i++ {
				if gi.Addr(i) != wi.Addr(i) {
					t.Fatalf("case %d [%d,%d) of %d: instr %d lane %d: %#x, want %#x", c, lo, hi, n, k, i, gi.Addr(i), wi.Addr(i))
				}
			}
		}
	}
}

// TestMaskedCSRSizeClass guards maskedCSRProgram's size. When one was
// allocated per warp of every bfs/sssp kernel, 152 bytes (the 160-byte
// class) raised alloc_mb on the paper-fig67 benchmark by 1.6% (2.2%
// together with the gpu package's warp crossing its class). Programs
// now live in pooled 256-byte slots, which any size up to 256 bytes
// fills.
func TestMaskedCSRSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(maskedCSRProgram{}); got > 144 {
		t.Fatalf("maskedCSRProgram is %d bytes, above the 144-byte size class", got)
	}
}

package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"
	"unsafe"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// TestRecycledStreamDigests replays every workload's instruction stream
// through recycled programs and checks it against the digests of
// TestInstructionStreamDigests. The workloads advance one kernel at a
// time in turn, so each pool hands its programs from one workload's
// kernel to another's, and from bfs/sssp kernel1 on to a stream kernel
// and back: a program keeps nothing from its previous warp.
func TestRecycledStreamDigests(t *testing.T) {
	names := AllNames()
	builds := make([]*Built, len(names))
	hashes := make([]hash.Hash, len(names))
	for i, name := range names {
		builds[i] = MustGet(name)(testScale)
		hashes[i] = sha256.New()
	}
	for ki, more := 0, true; more; ki++ {
		more = false
		for i, b := range builds {
			if ki < len(b.Kernels) {
				hashKernel(hashes[i], b.Kernels[ki], true)
				more = true
			}
		}
	}
	for i, name := range names {
		if got := hex.EncodeToString(hashes[i].Sum(nil))[:16]; got != streamDigests[name] {
			t.Errorf("%s: recycled stream digest %s, want %s", name, got, streamDigests[name])
		}
	}
}

// fastMem serves every access on the fast path, so a kernel runs
// without any memory-side allocation.
type fastMem struct{ eng *sim.Engine }

func (m fastMem) TryFastAccess(memunits.Addr, bool) (sim.Cycle, bool) {
	return m.eng.Now() + 100, true
}

func (m fastMem) Access(_ memunits.Addr, _ bool, done func()) { m.eng.After(100, done) }

// csrKernelAllocs returns the allocations of one launch of a bfs
// kernel1 with the given warp count on a warmed GPU: a synthetic
// two-edge-per-node graph and a frontier of every 16th node.
func csrKernelAllocs(t *testing.T, warps int) float64 {
	t.Helper()
	n := warps * nodesPerWarp
	g := &Graph{N: n, RowPtr: make([]int32, n+1), Edges: make([]int32, 2*n)}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] = int32(2 * (v + 1))
		g.Edges[2*v] = int32((v + 1) % n)
		g.Edges[2*v+1] = int32((v*7 + 3) % n)
	}
	var frontier []int32
	for v := 0; v < n; v += 16 {
		frontier = append(frontier, int32(v))
	}
	k := buildBFS(g, [][]int32{frontier}).Kernels[0]
	if got := k.CTAs * k.WarpsPerCTA; got != warps {
		t.Fatalf("kernel has %d warps, want %d", got, warps)
	}
	eng := sim.NewEngine()
	var st stats.Counters
	dev := gpu.New(eng, config.Default(), fastMem{eng}, &st)
	onDone := func(sim.Cycle) {}
	launch := func() {
		dev.Launch(k, onDone)
		eng.Run()
	}
	// Warm the warp pool, the engine arena and the program pool; the
	// pool's per-P buffer reaches its final size on the second pass.
	for i := 0; i < 3; i++ {
		launch()
	}
	return testing.AllocsPerRun(5, launch)
}

// TestCSRKernelAllocsIndependentOfWarps checks that recycling bounds a
// kernel's program allocations by its peak resident warps: at 256 warps
// every warp is resident at once, at 4096 most wait for a slot, and one
// launch allocates the same at both sizes. Under the race detector
// sync.Pool drops a quarter of its Puts at random, so there the test
// only checks that most programs are reused.
func TestCSRKernelAllocsIndependentOfWarps(t *testing.T) {
	small := csrKernelAllocs(t, 256)
	large := csrKernelAllocs(t, 4096)
	if raceEnabled {
		if large >= 4096/2 {
			t.Fatalf("4096-warp launch allocated %.0f times, want under one per two warps", large)
		}
		return
	}
	if small != large {
		t.Fatalf("one launch allocated %.0f times at 256 warps and %.0f at 4096, want equal", small, large)
	}
}

// checkSlots checks that q's slot size is a multiple of 128 bytes and
// that 64 programs taken from q each start on a 128-byte boundary.
func checkSlots[T, Pad any](t *testing.T, name string, q *programPool[T, Pad]) {
	t.Helper()
	if size := unsafe.Sizeof(slot[T, Pad]{}); size%linePair != 0 {
		t.Errorf("%s: slot of %d bytes, want a multiple of %d", name, size, linePair)
	}
	ps := make([]*T, 64)
	for i := range ps {
		ps[i] = q.get()
		if a := uintptr(unsafe.Pointer(ps[i])); a%linePair != 0 {
			t.Errorf("%s: program at %#x, want a %d-byte boundary", name, a, linePair)
		}
	}
	for _, p := range ps {
		q.put(p)
	}
}

// TestProgramSlotsAlignToLinePairs checks that no two pooled programs
// share a 128-byte line pair.
func TestProgramSlotsAlignToLinePairs(t *testing.T) {
	checkSlots(t, "stream", &streamPool)
	checkSlots(t, "gather", &gatherPool)
	checkSlots(t, "strided", &stridedPool)
	checkSlots(t, "chained", &seqPool)
	checkSlots(t, "masked-CSR", &maskedCSRPool)
}

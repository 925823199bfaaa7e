package gpu

import (
	"slices"
	"testing"
	"unsafe"

	"uvmsim/internal/memunits"
)

// expand rewrites a dense instruction into the per-lane form.
func expand(in Instr) Instr {
	out := in
	out.Stride = 0
	for i := 0; i < in.NumAddrs; i++ {
		out.Addrs[i] = in.Addr(i)
	}
	return out
}

// sectorsOf runs the coalescer on one instruction.
func sectorsOf(in Instr) []memunits.Addr {
	w := &warp{instr: in}
	(&GPU{}).coalesce(w)
	return slices.Clone(w.sectors[:w.nsec])
}

// FuzzCoalesceDense checks the arithmetic dense path against the
// per-lane sort/dedup path on the expanded lane addresses: the same
// sectors in the same order. Inputs are folded into base 0..2^40,
// stride 1..2*SectorSize and 1..32 lanes.
func FuzzCoalesceDense(f *testing.F) {
	f.Add(uint64(0), uint32(4), uint8(32))
	f.Add(uint64(1<<40), uint32(4), uint8(32))
	f.Add(uint64(0x1002), uint32(4), uint8(32))    // unaligned base
	f.Add(uint64(0x7c), uint32(4), uint8(2))       // two lanes straddle a sector
	f.Add(uint64(0x7f), uint32(128), uint8(32))    // stride exactly SectorSize
	f.Add(uint64(0x80), uint32(128), uint8(32))    // aligned, one sector per lane
	f.Add(uint64(0x3), uint32(127), uint8(32))     // just under one sector
	f.Add(uint64(0x10003), uint32(129), uint8(7))  // just over one sector
	f.Add(uint64(0xfffff), uint32(256), uint8(32)) // largest stride
	f.Add(uint64(0x12345), uint32(1), uint8(1))    // single lane
	f.Add(uint64(0x12345), uint32(3), uint8(31))   // odd stride, partial warp
	f.Add(uint64(1<<40-1), uint32(200), uint8(32)) // top of the range
	f.Add(uint64(0xfff80), uint32(64), uint8(5))   // crosses a 64KB block
	f.Fuzz(func(t *testing.T, base uint64, stride uint32, lanes uint8) {
		in := Instr{
			NumAddrs: int(lanes-1)%MaxLanes + 1,
			Stride:   (stride-1)%(2*memunits.SectorSize) + 1,
		}
		in.Addrs[0] = base % (1<<40 + 1)
		got := sectorsOf(in)
		want := sectorsOf(expand(in))
		if !slices.Equal(got, want) {
			t.Fatalf("base %#x stride %d lanes %d: dense sectors %#x, per-lane %#x",
				in.Addrs[0], in.Stride, in.NumAddrs, got, want)
		}
	})
}

// TestDenseInstrIssuesLikePerLane runs the same kernel with dense and
// expanded instructions: the backend must see the same accesses and the
// kernel must finish on the same cycle.
func TestDenseInstrIssuesLikePerLane(t *testing.T) {
	dense := []Instr{
		{Compute: 3, NumAddrs: 32, Stride: 4},
		{NumAddrs: 17, Stride: 8, Write: true},
		{Compute: 1, NumAddrs: 32, Stride: 200},
		{NumAddrs: 9, Stride: 128},
	}
	bases := []memunits.Addr{0x10004, 0x2007c, 0x30000, 0x4ff83}
	for i := range dense {
		dense[i].Addrs[0] = bases[i]
	}
	expanded := make([]Instr, len(dense))
	for i, in := range dense {
		expanded[i] = expand(in)
	}
	// Lane 5 of the third instruction goes down the async path.
	slow := (bases[2] + 5*200) &^ (memunits.SectorSize - 1)
	type result struct {
		accesses []memunits.Addr
		writes   int
		finish   uint64
		memOps   uint64
	}
	run := func(instrs []Instr) result {
		g, mem, st, _ := newGPU(testCfg())
		mem.slow[slow] = true
		finish := g.RunSync(Kernel{Name: "dense", CTAs: 1, WarpsPerCTA: 1,
			NewWarp: func(_, _ int) WarpProgram { return &listProgram{instrs: instrs} }})
		return result{mem.accesses, mem.writes, uint64(finish), st.MemInstructions}
	}
	d, e := run(dense), run(expanded)
	if !slices.Equal(d.accesses, e.accesses) || d.writes != e.writes || d.finish != e.finish || d.memOps != e.memOps {
		t.Fatalf("dense run %+v differs from per-lane run %+v", d, e)
	}
}

// TestWarpSizeClass guards the warp's allocation size class. Objects
// with pointers larger than 512 bytes carry an 8-byte malloc header, so
// a warp above 632 bytes lands in the 704-byte class. A uint64 Stride
// at the end of Instr grew warp to 640 bytes and alloc_mb on the
// paper-fig67 benchmark by 0.6% (2.2% together with the workloads
// package's maskedCSRProgram crossing its class).
func TestWarpSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(warp{}) + 8; got > 640 {
		t.Fatalf("warp with malloc header is %d bytes, above the 640-byte size class", got)
	}
}

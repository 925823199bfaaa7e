package gpu

import (
	"math/rand"
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
	return slices.Clone(w.instr.Addrs[:w.nsec])
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

// gatherLanes decodes a fuzz input into 1..32 gather lanes: two bytes
// per lane, each an offset from base in units of 1<<shift bytes, so a
// small shift packs lanes into a few sectors (duplicates) and a large one
// spreads them across 64KB blocks. An empty input is one lane at base.
func gatherLanes(base uint64, shift uint8, raw []byte) Instr {
	in := Instr{NumAddrs: min(max(len(raw)/2, 1), MaxLanes)}
	base %= 1 << 40
	for i := 0; i < in.NumAddrs; i++ {
		var off uint64
		if 2*i+1 < len(raw) {
			off = uint64(raw[2*i]) | uint64(raw[2*i+1])<<8
		}
		in.Addrs[i] = base + off<<(shift%13)
	}
	return in
}

// FuzzCoalesceGather checks the in-place gather coalescer against an
// independent reference: mask a copy of the lanes to their sectors,
// sort and drop duplicates. The seeds cover duplicate, descending,
// broadcast and block-crossing lanes, full and partial warps, and
// unsorted gathers on both sides of the sorting network's threshold.
func FuzzCoalesceGather(f *testing.F) {
	lanes := func(offs ...uint16) []byte {
		b := make([]byte, 0, 2*len(offs))
		for _, o := range offs {
			b = append(b, byte(o), byte(o>>8))
		}
		return b
	}
	desc := make([]uint16, MaxLanes)
	asc := make([]uint16, MaxLanes)
	scattered := make([]uint16, MaxLanes)
	for i := range desc {
		desc[i] = uint16(MaxLanes - 1 - i)
		asc[i] = uint16(i)
		scattered[i] = uint16(i * 7 % 20)
	}
	equal := make([]uint16, 24)
	for i := range equal {
		equal[i] = 0x1234
	}
	f.Add(uint64(0), uint8(0), []byte{})                                     // empty input: one lane
	f.Add(uint64(0x12345), uint8(0), lanes(7))                               // single lane
	f.Add(uint64(0x4000), uint8(0), lanes(make([]uint16, MaxLanes)...))      // broadcast
	f.Add(uint64(0x1000), uint8(2), lanes(asc...))                           // unit stride, sorted
	f.Add(uint64(0x1000), uint8(7), lanes(desc...))                          // one sector per lane, descending
	f.Add(uint64(0x1000), uint8(5), lanes(desc...))                          // descending with duplicates
	f.Add(uint64(0x2000), uint8(7), lanes(3, 1, 3, 0, 1, 2, 0, 3))           // repeats out of order
	f.Add(uint64(0xff00), uint8(6), lanes(9, 0, 5, 1, 7, 2, 8, 3, 6, 4))     // crosses a 64KB block
	f.Add(uint64(0x1fff0), uint8(12), lanes(desc[:17]...))                   // 4KB apart, many blocks
	f.Add(uint64(1<<40-1), uint8(0), lanes(0xffff, 0, 0x8000, 0xffff, 0x80)) // top of the range
	f.Add(uint64(0x3c), uint8(1), lanes(40, 2, 70, 2, 33, 64, 1, 95, 40))    // partial warp
	// Gathers of 15 to 32 lanes, all but one unsorted, on both sides of
	// netThreshold (16 sectors): up to it the insertion sort runs, above
	// it the sorting network.
	f.Add(uint64(0x1000), uint8(7), lanes(desc[17:]...))                              // 15 descending: insertion
	f.Add(uint64(0x1000), uint8(7), lanes(desc[16:]...))                              // 16 descending: insertion, at the threshold
	f.Add(uint64(0x1000), uint8(7), lanes(desc[15:]...))                              // 17 descending: network, just past it
	f.Add(uint64(0x1000), uint8(7), lanes(append([]uint16{5, 5}, desc[16:]...)...))   // 18 lanes, 17 kept by the masking pass: network
	f.Add(uint64(0x1000), uint8(7), lanes(append([]uint16{40, 40}, desc[17:]...)...)) // 17 lanes, 16 kept: insertion
	f.Add(uint64(0x9000), uint8(7), lanes(scattered...))                              // 32 lanes, 20 sectors, no two repeats adjacent: network, then dedup
	f.Add(uint64(0x9000), uint8(5), lanes(scattered[:24]...))                         // 24 lanes in 5 sectors, none adjacent: network, then dedup
	f.Add(uint64(0x5000), uint8(9), lanes(equal...))                                  // 24 equal lanes: one sector, so nothing to sort
	f.Add(uint64(1<<40-1), uint8(12), lanes(desc...))                                 // 32 descending 4KB apart at the top of the range
	f.Fuzz(func(t *testing.T, base uint64, shift uint8, raw []byte) {
		in := gatherLanes(base, shift, raw)
		want := slices.Clone(in.Addrs[:in.NumAddrs])
		for i := range want {
			want[i] &^= memunits.SectorSize - 1
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := sectorsOf(in); !slices.Equal(got, want) {
			t.Fatalf("lanes %#x: coalesced %#x, want %#x", in.Addrs[:in.NumAddrs], got, want)
		}
	})
}

// TestSortNetSorts checks the generated network against slices.Sort on
// random keys: 0/1 keys (by the 0-1 principle a network that sorts every
// 0/1 input sorts every input, and a missing or misplaced
// compare-exchange leaves some 0/1 input unsorted), keys from a few
// values, and keys from the whole range.
func TestSortNetSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30000; trial++ {
		var s [MaxLanes]memunits.Addr
		for i := range s {
			switch trial % 3 {
			case 0:
				s[i] = memunits.Addr(rng.Intn(2))
			case 1:
				s[i] = memunits.Addr(rng.Intn(5))
			default:
				s[i] = rng.Uint64()
			}
		}
		want := s
		slices.Sort(want[:])
		if sortNet(&s); s != want {
			t.Fatalf("trial %d: sortNet gave %v, want %v", trial, s, want)
		}
	}
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

// TestWarpSizeClass guards the warp's allocation size class. A warp
// holds its per-instruction state and its Instr, whose lanes the
// coalescer overwrites with the sectors, and no prebound event closures;
// at 360 bytes it sits in the 384-byte class, with no malloc header
// (objects up to 512 bytes carry none). A per-warp sectors array of its
// own cost 256 bytes and put the warp at 640, and with it about 12 MB of
// the paper-fig67 benchmark's alloc_mb.
func TestWarpSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(warp{}); got > 384 {
		t.Fatalf("warp is %d bytes, above the 384-byte size class", got)
	}
}

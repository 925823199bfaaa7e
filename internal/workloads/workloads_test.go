package workloads

import (
	"testing"

	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
)

const testScale = 0.02

// drainWarp runs a warp program to completion, validating that every
// address lies inside an allocation of the build and returning the
// instruction count.
func drainWarp(t *testing.T, b *Built, p gpu.WarpProgram) int {
	t.Helper()
	var in gpu.Instr
	count := 0
	for p.Next(&in) {
		count++
		if count > 5_000_000 {
			t.Fatal("warp program does not terminate")
		}
		if in.NumAddrs < 0 || in.NumAddrs > gpu.MaxLanes {
			t.Fatalf("instr with %d lanes", in.NumAddrs)
		}
		for i := 0; i < in.NumAddrs; i++ {
			a := b.Space.Find(in.Addr(i))
			if a == nil {
				t.Fatalf("address %#x outside all allocations", in.Addr(i))
			}
			if off := in.Addr(i) - a.Base; off >= a.UserSize {
				t.Fatalf("address %#x beyond user size of %s", in.Addr(i), a.Name)
			}
		}
	}
	return count
}

// drainBuild walks every warp of every kernel.
func drainBuild(t *testing.T, b *Built) (instrs int) {
	t.Helper()
	for _, k := range b.Kernels {
		if err := k.Validate(); err != nil {
			t.Fatalf("kernel invalid: %v", err)
		}
		for cta := 0; cta < k.CTAs; cta++ {
			for w := 0; w < k.WarpsPerCTA; w++ {
				instrs += drainWarp(t, b, k.NewWarp(cta, w))
			}
		}
	}
	return instrs
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"backprop", "fdtd", "hotspot", "srad", "bfs", "nw", "ra", "sssp"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	for _, n := range RegularNames() {
		if !IsRegular(n) {
			t.Errorf("%s should be regular", n)
		}
	}
	for _, n := range IrregularNames() {
		if IsRegular(n) {
			t.Errorf("%s should be irregular", n)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get accepted unknown name")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on unknown name did not panic")
		}
	}()
	MustGet("nope")
}

func TestAllWorkloadsBuildAndDrain(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := MustGet(name)(testScale)
			if b.Name != name {
				t.Fatalf("built name %q", b.Name)
			}
			if b.Regular != IsRegular(name) {
				t.Fatal("regularity mismatch")
			}
			if len(b.Kernels) == 0 {
				t.Fatal("no kernels")
			}
			if len(b.IterOf) != len(b.Kernels) {
				t.Fatalf("IterOf length %d != kernels %d", len(b.IterOf), len(b.Kernels))
			}
			if b.WorkingSet() == 0 {
				t.Fatal("zero working set")
			}
			if n := drainBuild(t, b); n == 0 {
				t.Fatal("no instructions generated")
			}
		})
	}
}

func TestBuildsAreDeterministic(t *testing.T) {
	for _, name := range []string{"bfs", "ra", "sssp"} {
		b1 := MustGet(name)(testScale)
		b2 := MustGet(name)(testScale)
		if len(b1.Kernels) != len(b2.Kernels) {
			t.Fatalf("%s: kernel counts differ across builds", name)
		}
		// Compare the first warp's first 100 instructions.
		p1 := b1.Kernels[0].NewWarp(0, 0)
		p2 := b2.Kernels[0].NewWarp(0, 0)
		var i1, i2 gpu.Instr
		for n := 0; n < 100; n++ {
			ok1 := p1.Next(&i1)
			ok2 := p2.Next(&i2)
			if ok1 != ok2 {
				t.Fatalf("%s: stream lengths differ", name)
			}
			if !ok1 {
				break
			}
			if i1.NumAddrs != i2.NumAddrs || i1.Write != i2.Write {
				t.Fatalf("%s: instr %d differs", name, n)
			}
			for k := 0; k < i1.NumAddrs; k++ {
				// Addresses are relative to per-build bases; compare
				// offsets within the first allocation instead.
				o1 := i1.Addr(k) - b1.Space.Allocations()[0].Base
				o2 := i2.Addr(k) - b2.Space.Allocations()[0].Base
				if o1 != o2 {
					t.Fatalf("%s: instr %d lane %d offset %#x vs %#x", name, n, k, o1, o2)
				}
			}
		}
	}
}

func TestScaleChangesWorkingSet(t *testing.T) {
	small := FDTD(0.02).WorkingSet()
	large := FDTD(0.08).WorkingSet()
	if large <= small {
		t.Fatalf("scaling did not grow working set: %d vs %d", small, large)
	}
}

func TestStreamProgramAddresses(t *testing.T) {
	b := FDTD(testScale)
	// First kernel, first warp: the first instruction must read the ey
	// array at offset 0 with 32 consecutive lanes.
	p := b.Kernels[0].NewWarp(0, 0)
	var in gpu.Instr
	if !p.Next(&in) {
		t.Fatal("empty program")
	}
	ey := b.Space.Allocations()[1] // ex, ey, hz order: ex=0? Alloc order: ex, ey, hz
	// Find allocation by name instead of position.
	for _, a := range b.Space.Allocations() {
		if a.Name == "ey" {
			ey = a
		}
	}
	if in.Addrs[0] != ey.Base {
		t.Fatalf("first address %#x, want ey base %#x", in.Addrs[0], ey.Base)
	}
	if in.Write {
		t.Fatal("first op should be a read")
	}
	if in.NumAddrs != 32 {
		t.Fatalf("lanes = %d, want 32", in.NumAddrs)
	}
	for i := 1; i < in.NumAddrs; i++ {
		if in.Addr(i) != in.Addr(i-1)+elemSize {
			t.Fatal("dense lanes not consecutive")
		}
	}
}

func TestGatherProgramDivergence(t *testing.T) {
	b := RA(testScale)
	p := b.Kernels[0].NewWarp(0, 0)
	var in gpu.Instr
	if !p.Next(&in) {
		t.Fatal("empty program")
	}
	// Random indices: expect addresses in many distinct sectors.
	sectors := map[memunits.Addr]bool{}
	for i := 0; i < in.NumAddrs; i++ {
		sectors[in.Addr(i)/memunits.SectorSize] = true
	}
	if len(sectors) < 8 {
		t.Fatalf("ra first instr touches only %d sectors; not divergent", len(sectors))
	}
	// Read must be followed by a write to the same addresses (RMW).
	read := in
	if !p.Next(&in) {
		t.Fatal("missing write half of RMW")
	}
	if !in.Write || in.NumAddrs != read.NumAddrs {
		t.Fatalf("second instr not matching write: write=%v lanes=%d", in.Write, in.NumAddrs)
	}
	for i := 0; i < in.NumAddrs; i++ {
		if in.Addr(i) != read.Addr(i) {
			t.Fatal("RMW write addresses differ from read")
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	var in gpu.Instr
	if (emptyProgram{}).Next(&in) {
		t.Fatal("empty program produced an instruction")
	}
}

func TestPartitionKernelCoversAllItems(t *testing.T) {
	// With 100 items and 32 per warp, 4 warps must cover [0,100) exactly.
	var covered []bool
	k := partitionKernel("t", 100, 32, func(lo, hi int) gpu.WarpProgram {
		if covered == nil {
			covered = make([]bool, 100)
		}
		for i := lo; i < hi; i++ {
			if covered[i] {
				panic("overlap")
			}
			covered[i] = true
		}
		return emptyProgram{}
	})
	for cta := 0; cta < k.CTAs; cta++ {
		for w := 0; w < k.WarpsPerCTA; w++ {
			k.NewWarp(cta, w)
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("item %d not covered", i)
		}
	}
}

func TestChainPrograms(t *testing.T) {
	b := NW(testScale)
	// Drain one warp of the middle diagonal (longest): must produce
	// instructions from at least one strided block.
	mid := b.Kernels[len(b.Kernels)/2]
	n := drainWarp(t, b, mid.NewWarp(0, 0))
	if n == 0 {
		t.Fatal("nw middle diagonal warp produced nothing")
	}
}

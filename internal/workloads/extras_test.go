package workloads

import (
	"testing"

	"uvmsim/internal/gpu"
)

func TestExtrasRegistered(t *testing.T) {
	if len(ExtraNames()) != 2 {
		t.Fatalf("ExtraNames = %v", ExtraNames())
	}
	if len(AllNames()) != 10 {
		t.Fatalf("AllNames = %v", AllNames())
	}
	// Paper figure sweeps must not include extras.
	if len(Names()) != 8 {
		t.Fatalf("Names leaked extras: %v", Names())
	}
	for _, n := range ExtraNames() {
		if _, ok := Get(n); !ok {
			t.Errorf("extra %q not resolvable via Get", n)
		}
		if IsRegular(n) {
			t.Errorf("extra %q misclassified as regular", n)
		}
	}
}

func TestExtrasBuildAndDrain(t *testing.T) {
	for _, name := range ExtraNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := MustGet(name)(testScale)
			if b.WorkingSet() == 0 || len(b.Kernels) == 0 {
				t.Fatal("empty build")
			}
			if n := drainBuild(t, b); n == 0 {
				t.Fatal("no instructions")
			}
		})
	}
}

func TestPointerChaseIsDependent(t *testing.T) {
	b := PointerChase(testScale)
	p := b.Kernels[0].NewWarp(0, 0)
	var in gpu.Instr
	var prev uint64
	distinct := map[uint64]bool{}
	for i := 0; p.Next(&in) && i < 64; i++ {
		if in.NumAddrs != 1 {
			t.Fatalf("chase instr has %d lanes, want 1", in.NumAddrs)
		}
		if i > 0 && in.Addrs[0] == prev {
			t.Fatal("chain did not advance")
		}
		prev = in.Addrs[0]
		distinct[in.Addrs[0]] = true
	}
	if len(distinct) < 16 {
		t.Fatalf("chain revisits too quickly: %d distinct addresses", len(distinct))
	}
}

func TestSpatterMixesStridedAndRandom(t *testing.T) {
	b := Spatter(testScale)
	// The second program of the first gather warp reads the buffer at
	// both strided and random offsets; just verify the gather phase
	// produces divergent sectors.
	p := b.Kernels[0].NewWarp(0, 0)
	var in gpu.Instr
	sawGather := false
	buffer := b.Space.Allocations()[0]
	for p.Next(&in) {
		if in.NumAddrs < 2 {
			continue
		}
		if !buffer.Contains(in.Addrs[0]) {
			continue
		}
		// Check divergence in a buffer access group.
		sectors := map[uint64]bool{}
		for i := 0; i < in.NumAddrs; i++ {
			sectors[in.Addr(i)/128] = true
		}
		if len(sectors) > 4 {
			sawGather = true
			break
		}
	}
	if !sawGather {
		t.Fatal("no divergent gather into the buffer observed")
	}
}

func TestExtrasRunEndToEnd(t *testing.T) {
	// Extras must survive a complete simulation (core is a higher-level
	// package, so run the GPU+driver pair directly via the drain loop in
	// core's integration tests; here a build-level sanity pass is
	// enough: every kernel validates).
	for _, name := range ExtraNames() {
		b := MustGet(name)(testScale)
		for _, k := range b.Kernels {
			if err := k.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

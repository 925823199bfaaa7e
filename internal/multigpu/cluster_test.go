package multigpu

import (
	"testing"

	"uvmsim/internal/alloc"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/gpu"
	"uvmsim/internal/workloads"
)

const testScale = 0.15

// emptyWarp is a warp program with no instructions.
type emptyWarp struct{}

func (emptyWarp) Next(*gpu.Instr) bool { return false }

// splitProbe runs one kernel of ctas single-warp CTAs on nGPUs and
// returns the result and how often each CTA's warp was instantiated.
func splitProbe(t *testing.T, ctas, nGPUs int) (*Result, map[int]int) {
	t.Helper()
	seen := make(map[int]int)
	b := &workloads.Built{
		Name:  "probe",
		Space: alloc.NewSpace(),
		Kernels: []gpu.Kernel{{
			Name: "k", CTAs: ctas, WarpsPerCTA: 1,
			NewWarp: func(cta, _ int) gpu.WarpProgram {
				seen[cta]++
				return emptyWarp{}
			},
		}},
		IterOf: []int{1},
	}
	return New(b, config.Default(), nGPUs).Run(), seen
}

func TestSplitKernelCoversAllCTAs(t *testing.T) {
	res, seen := splitProbe(t, 10, 4)
	var total uint64
	for i := range res.PerGPU {
		total += res.PerGPU[i].WarpsRetired
	}
	if total != 10 {
		t.Fatalf("split covers %d CTAs, want 10", total)
	}
	for cta := 0; cta < 10; cta++ {
		if seen[cta] != 1 {
			t.Fatalf("CTA %d instantiated %d times", cta, seen[cta])
		}
	}
}

func TestSplitKernelMoreGPUsThanCTAs(t *testing.T) {
	res, _ := splitProbe(t, 2, 8)
	var withWork int
	for i := range res.PerGPU {
		if res.PerGPU[i].WarpsRetired > 0 {
			withWork++
		}
	}
	if withWork != 2 {
		t.Fatalf("%d GPUs got work, want 2", withWork)
	}
}

func TestSingleGPUMatchesCoreShape(t *testing.T) {
	// A 1-GPU cluster must retire the same warp count as the workload
	// demands and produce valid stats.
	res := RunWorkload("hotspot", testScale, 1, 100, config.PolicyDisabled, config.Default())
	if res.Cycles == 0 {
		t.Fatal("zero makespan")
	}
	if len(res.PerGPU) != 1 {
		t.Fatalf("PerGPU = %d", len(res.PerGPU))
	}
	if err := res.PerGPU[0].Validate(); err != nil {
		t.Fatal(err)
	}
	b := workloads.MustGet("hotspot")(testScale)
	var wantWarps uint64
	for _, k := range b.Kernels {
		wantWarps += uint64(k.CTAs * k.WarpsPerCTA)
	}
	if res.PerGPU[0].WarpsRetired != wantWarps {
		t.Fatalf("retired %d warps, want %d", res.PerGPU[0].WarpsRetired, wantWarps)
	}
}

func TestMultiGPUSplitsWork(t *testing.T) {
	single := RunWorkload("fdtd", testScale, 1, 100, config.PolicyDisabled, config.Default())
	quad := RunWorkload("fdtd", testScale, 4, 100, config.PolicyDisabled, config.Default())
	var quadWarps uint64
	for i := range quad.PerGPU {
		quadWarps += quad.PerGPU[i].WarpsRetired
		if err := quad.PerGPU[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if quadWarps != single.PerGPU[0].WarpsRetired {
		t.Fatalf("cluster retired %d warps, single %d", quadWarps, single.PerGPU[0].WarpsRetired)
	}
	// Four GPUs with proportional memory must be faster than one (the
	// compute and fault handling parallelize).
	if quad.Cycles >= single.Cycles {
		t.Fatalf("4 GPUs (%d cycles) not faster than 1 (%d)", quad.Cycles, single.Cycles)
	}
}

func TestThrottlingReducesClusterThrash(t *testing.T) {
	// The future-work claim: the dynamic threshold throttles memory per
	// GPU, cutting thrash for irregular collaborative workloads.
	base := RunWorkload("ra", testScale, 2, 125, config.PolicyDisabled, config.Default())
	cfg := config.Default()
	cfg.Penalty = 8
	adpt := RunWorkload("ra", testScale, 2, 125, config.PolicyAdaptive, cfg)
	if base.TotalThrashedPages() == 0 {
		t.Fatal("baseline cluster did not thrash; scale too small")
	}
	if adpt.TotalThrashedPages() >= base.TotalThrashedPages() {
		t.Fatalf("Adaptive cluster thrash %d not below baseline %d",
			adpt.TotalThrashedPages(), base.TotalThrashedPages())
	}
	if adpt.Cycles >= base.Cycles {
		t.Fatalf("Adaptive cluster (%d) not faster than baseline (%d)", adpt.Cycles, base.Cycles)
	}
	if adpt.TotalRemoteAccesses() == 0 {
		t.Fatal("Adaptive cluster performed no remote accesses")
	}
}

func TestNewValidation(t *testing.T) {
	b := workloads.MustGet("backprop")(0.05)
	for _, n := range []int{0, core.MaxGPUs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d GPUs did not panic", n)
				}
			}()
			New(b, config.Default(), n)
		}()
	}
	if got := len(New(b, config.Default(), core.MaxGPUs).Run().PerGPU); got != core.MaxGPUs {
		t.Errorf("a %d-GPU cluster has %d nodes", core.MaxGPUs, got)
	}
}

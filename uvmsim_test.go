package uvmsim

import (
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as README's quick
// start and the examples do.

func TestPublicAPIQuickstart(t *testing.T) {
	b := BuildWorkload("ra", 0.1)
	if b.Name != "ra" || b.WorkingSet() == 0 {
		t.Fatalf("BuildWorkload: %+v", b)
	}
	cfg := DefaultConfig().WithPolicy(PolicyAdaptive).WithOversubscription(b.WorkingSet(), 125)
	res := Run(b, cfg)
	if res.Runtime() == 0 || res.Counters.WarpsRetired == 0 {
		t.Fatalf("run produced no work: %s", res.Counters.String())
	}
}

func TestPublicAPIRegistry(t *testing.T) {
	if len(Workloads()) != 8 {
		t.Fatalf("Workloads = %v", Workloads())
	}
	for i, w := range Workloads() {
		if IsRegular(w) != (i < 4) {
			t.Errorf("%s misclassified", w)
		}
	}
	if len(Policies()) != 4 {
		t.Fatal("Policies wrong")
	}
}

func TestPublicAPIPolicyConstants(t *testing.T) {
	names := map[MigrationPolicy]string{
		PolicyDisabled: "Disabled",
		PolicyAlways:   "Always",
		PolicyOversub:  "Oversub",
		PolicyAdaptive: "Adaptive",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%v != %s", p, want)
		}
	}
}

func TestPublicAPITable1(t *testing.T) {
	out := Table1(DefaultConfig())
	if !strings.Contains(out, "Table I") {
		t.Fatalf("Table1 output:\n%s", out)
	}
}

func TestPublicAPICustomWorkload(t *testing.T) {
	// A minimal custom workload through the exported types, as
	// examples/custom-workload does.
	space := NewSpace()
	a := space.Alloc("data", 1<<20, false)
	prog := &countdownProgram{alloc: a, left: 64}
	w := &Workload{
		Name:    "custom",
		Space:   space,
		Kernels: []Kernel{{Name: "k", CTAs: 1, WarpsPerCTA: 1, NewWarp: func(_, _ int) WarpProgram { return prog }}},
		IterOf:  []int{1},
	}
	cfg := DefaultConfig().WithOversubscription(w.WorkingSet(), 100)
	res := Run(w, cfg)
	if res.Counters.MemInstructions != 64 {
		t.Fatalf("mem instructions = %d, want 64", res.Counters.MemInstructions)
	}
}

// countdownProgram touches the allocation sequentially, one 32-lane
// instruction per Next call.
type countdownProgram struct {
	alloc *Allocation
	left  int
	pos   uint64
}

// Next implements WarpProgram.
func (p *countdownProgram) Next(in *Instr) bool {
	if p.left == 0 {
		return false
	}
	p.left--
	in.Compute = 1
	in.Write = false
	in.NumAddrs = 32
	for i := 0; i < 32; i++ {
		in.Addrs[i] = p.alloc.Addr(p.pos)
		p.pos += 4
	}
	return true
}

func TestPublicAPIRunWorkloadHelper(t *testing.T) {
	res := RunWorkload("backprop", 0.1, 100, PolicyDisabled, DefaultConfig())
	if res.Workload != "backprop" {
		t.Fatalf("result workload %q", res.Workload)
	}
	if res.Counters.EvictedPages != 0 {
		t.Fatal("fitting run evicted pages")
	}
}

func TestPublicAPIPresets(t *testing.T) {
	p, err := PresetConfig("pascal")
	if err != nil || p != DefaultConfig() {
		t.Fatalf("pascal preset: %v", err)
	}
	v, err := PresetConfig("volta")
	if err != nil || v.NumSMs != 80 {
		t.Fatalf("volta preset: %+v, %v", v, err)
	}
	if _, err := PresetConfig("ampere"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPublicAPIExtras(t *testing.T) {
	if all := AllWorkloads(); len(all) != 10 || all[8] != "spatter" || all[9] != "pointerchase" {
		t.Fatalf("extras: %v", all)
	}
	b := BuildWorkload("spatter", 0.05)
	if b.Name != "spatter" {
		t.Fatalf("built %q", b.Name)
	}
}

func TestPublicAPICluster(t *testing.T) {
	res := RunCluster("hotspot", 0.05, 2, 100, PolicyDisabled, DefaultConfig())
	if res.Cycles == 0 || len(res.PerGPU) != 2 {
		t.Fatalf("cluster result: %+v", res)
	}
	if res.TotalThrashedPages() != 0 {
		t.Fatal("fitting cluster thrashed")
	}
	b := BuildWorkload("hotspot", 0.05)
	cfg := DefaultConfig().WithOversubscription(b.WorkingSet()/2, 100)
	c := NewCluster(b, cfg, 2)
	if c == nil {
		t.Fatal("NewCluster returned nil")
	}
}

func TestPublicAPIAdvise(t *testing.T) {
	b := BuildWorkload("ra", 0.05)
	cfg := DefaultConfig().WithOversubscription(b.WorkingSet(), 100)
	s := New(b, cfg)
	s.Driver.Advise(b.Space.Allocations()[0], AdvicePinHost)
	res := s.Run()
	if res.Counters.MigratedPages != 0 {
		t.Fatal("pinned run migrated pages")
	}
	if res.Counters.RemoteAccesses() == 0 {
		t.Fatal("pinned run produced no remote accesses")
	}
}

func TestPublicAPIExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is slow")
	}
	tab := Figures(ExperimentOptions{Scale: 0.1, Workloads: []string{"hotspot"}}, 0, "fig5")[0].Tables[0]
	if len(tab.Rows) != 1 || len(tab.Columns) != 3 {
		t.Fatalf("Fig5 table shape wrong: %+v", tab)
	}
}

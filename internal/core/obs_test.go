package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/devmem"
	"uvmsim/internal/obs"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// obsSim builds a small simulator with the given instruments attached.
func obsSim(t *testing.T, workload string, pct uint64, r *obs.Run) *Simulator {
	t.Helper()
	b := workloads.MustGet(workload)(testScale)
	cfg := config.Default().WithPolicy(config.PolicyAdaptive).WithOversubscription(b.WorkingSet(), pct)
	cfg.Penalty = 8
	s := New(b, cfg)
	s.Observe(func(int) *obs.Run { return r })
	return s
}

// countSweeps adds a counting check to every observed GPU's invariant
// suite and returns the count of periodic sweeps; call after Observe.
func countSweeps(s *Simulator) *atomic.Uint64 {
	var n atomic.Uint64
	for _, nd := range s.nodes {
		nd.ck.Add("count", func() error { n.Add(1); return nil })
	}
	return &n
}

// Attaching the full instrument set must not change simulated behaviour:
// identical counters and kernel spans with observability on and off.
func TestObserveDoesNotPerturbSimulation(t *testing.T) {
	plain := obsSim(t, "fdtd", 125, nil).Run()
	r := &obs.Run{
		Name:       "fdtd",
		Reg:        obs.NewRegistry(),
		Tr:         obs.NewTracer(1),
		CheckEvery: 10_000,
	}
	s := obsSim(t, "fdtd", 125, r)
	sweeps := countSweeps(s)
	instrumented := s.Run()
	if plain.Counters != instrumented.Counters {
		t.Fatalf("counters diverge with observability on:\n  off: %v\n  on:  %v",
			&plain.Counters, &instrumented.Counters)
	}
	if !reflect.DeepEqual(plain.Spans, instrumented.Spans) {
		t.Fatalf("kernel spans diverge with observability on")
	}
	if sweeps.Load() == 0 {
		t.Fatal("periodic invariant sweep never fired")
	}
	if len(r.Tr.Spans()) == 0 {
		t.Fatal("tracer saw no spans")
	}
}

// The canonical metrics published by the driver must exactly match the
// stats block of the same run.
func TestMetricsSnapshotMatchesStats(t *testing.T) {
	r := &obs.Run{Name: "sssp", Reg: obs.NewRegistry()}
	res := obsSim(t, "sssp", 125, r).Run()
	snap := r.Collect()
	c := &res.Counters
	want := map[string]uint64{
		"uvm.access.near":              c.NearAccesses,
		"uvm.access.remote_reads":      c.RemoteReads,
		"uvm.access.remote_writes":     c.RemoteWrites,
		"uvm.fault.far":                c.FarFaults,
		"uvm.fault.batches":            c.FaultBatches,
		"uvm.migrate.pages":            c.MigratedPages,
		"uvm.migrate.prefetched_pages": c.PrefetchedPages,
		"uvm.migrate.thrashed_pages":   c.ThrashedPages,
		"uvm.evict.pages":              c.EvictedPages,
		"uvm.evict.writeback_pages":    c.WrittenBackPages,
		"uvm.pcie.h2d_bytes":           c.H2DBytes,
		"uvm.pcie.d2h_bytes":           c.D2HBytes,
		"uvm.tlb.hits":                 c.TLBHits,
		"uvm.tlb.misses":               c.TLBMisses,
		"uvm.tlb.shootdowns":           c.TLBShootdowns,
		"gpu.instructions":             c.Instructions,
		"gpu.mem_instructions":         c.MemInstructions,
		"gpu.warps_retired":            c.WarpsRetired,
		"sim.cycles":                   c.Cycles,
	}
	for name, v := range want {
		if got := snap.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if c.EvictedPages == 0 {
		t.Fatal("test needs an oversubscribed run with evictions")
	}
	if snap.Counter("uvm.evict.selections.LFU.strict")+snap.Counter("uvm.evict.selections.LFU.relaxed") == 0 {
		t.Errorf("no victim selections recorded despite %d evicted pages; counters=%v",
			c.EvictedPages, snap.Counters)
	}
	if snap.Histograms["uvm.fault.batch_size"].Count != c.FaultBatches {
		t.Errorf("batch-size histogram count %d != fault batches %d",
			snap.Histograms["uvm.fault.batch_size"].Count, c.FaultBatches)
	}
	if snap.Counter("gpu.warp_stall_cycles") == 0 {
		t.Error("no warp stall cycles recorded")
	}
}

// skewDeviceMemory allocates one device page behind the driver's back:
// an accounting bug with no matching residency. The driver keeps its
// memory unexported, so the test reaches it by reflection.
func skewDeviceMemory(d *uvm.Driver) {
	mem := reflect.ValueOf(d).Elem().FieldByName("mem")
	(*devmem.Memory)(mem.UnsafePointer()).Allocate(1)
}

// A deliberately injected accounting bug must be caught by the
// driver-consistency check with a cycle-stamped diagnostic.
func TestInjectedAccountingBugCaught(t *testing.T) {
	s := obsSim(t, "fdtd", 100, &obs.Run{CheckEvery: 1000})
	skewDeviceMemory(s.Driver)
	err := s.nodes[0].ck.RunAll(uint64(s.Engine.Now()))
	if err == nil {
		t.Fatal("skewed accounting not detected")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error type %T, want *obs.Violation", err)
	}
	if v.Check != "driver-consistency" {
		t.Fatalf("check = %q", v.Check)
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("diagnostic not cycle-stamped: %q", err)
	}
}

// The periodic sweep must fail fast mid-run, panicking with the
// violation rather than completing on corrupted state.
func TestPeriodicCheckerFailsFastMidRun(t *testing.T) {
	s := obsSim(t, "fdtd", 100, &obs.Run{CheckEvery: 500})
	skewDeviceMemory(s.Driver)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run completed on corrupted state")
		}
		v, ok := r.(*obs.Violation)
		if !ok {
			t.Fatalf("panic value %T, want *obs.Violation", r)
		}
		if v.Check != "driver-consistency" || v.Cycle == 0 {
			t.Fatalf("violation = %+v", v)
		}
	}()
	s.Run()
}

// Full acceptance matrix: every workload under every policy at 100% and
// 125% oversubscription with invariant checking and metrics on.
func TestInvariantMatrixAllWorkloadsAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant matrix is slow")
	}
	for _, name := range workloads.Names() {
		for _, pol := range config.Policies() {
			for _, pct := range []uint64{100, 125} {
				name, pol, pct := name, pol, pct
				t.Run(fmt.Sprintf("%s/%s/%d", name, pol, pct), func(t *testing.T) {
					t.Parallel()
					b := workloads.MustGet(name)(0.1)
					cfg := config.Default().WithPolicy(pol).WithOversubscription(b.WorkingSet(), pct)
					cfg.Penalty = 8
					s := New(b, cfg)
					r := &obs.Run{Name: t.Name(), Reg: obs.NewRegistry(), CheckEvery: 5_000}
					s.Observe(func(int) *obs.Run { return r })
					sweeps := countSweeps(s)
					res := s.Run()
					if res.Runtime() == 0 {
						t.Fatal("zero runtime")
					}
					if sweeps.Load() == 0 {
						t.Fatal("invariant sweep never fired")
					}
				})
			}
		}
	}
}

package uvm

import (
	"fmt"
	"slices"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/gpu"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/workloads"
)

// refChunkCandidates is the chunk collection as a full walk over every
// materialized chunk: each resident chunk other than dest is scored,
// then dropped if the pass pins it. It returns the surviving candidates
// and how many resident chunks were pinned.
func refChunkCandidates(d *Driver, dest *chunkState, strict bool) (cands []evict.Candidate, pinnedCount int) {
	now := d.eng.Now()
	for num, cs := range d.chunkArr {
		if cs == nil || cs.residentBlocks == 0 || cs == dest {
			continue
		}
		pinned := cs.inFlightBlocks > 0
		if strict {
			recent := d.cfg.EvictionRecencyGuard > 0 &&
				now-cs.lastAccess < d.cfg.EvictionRecencyGuard
			pinned = cs.pinnedStandard() || recent
		}
		first := cs.info.FirstBlock()
		c := evict.Candidate{
			Unit:       uint64(num),
			LastAccess: cs.lastAccess,
			Score:      d.ctrs.SumCounts(uint64(first), cs.info.Blocks()),
			Dirty:      d.chunkDirty(cs),
			Full:       cs.pf.Tree().Full(),
		}
		if pinned {
			pinnedCount++
			continue
		}
		cands = append(cands, c)
	}
	return cands, pinnedCount
}

// refCheckingEngine wraps an EvictionEngine and, at every EvictOne,
// asserts that the host's indexed chunk collection equals the reference
// walk for both passes before delegating.
type refCheckingEngine struct {
	mm.EvictionEngine
	t *testing.T
	// calls counts EvictOne calls, pinned the pinned chunks the
	// reference dropped, listed the candidates it kept.
	calls, pinned, listed int
}

func (e *refCheckingEngine) EvictOne(h mm.EvictionHost) bool {
	e.t.Helper()
	eh := h.(*evictionHost)
	for _, strict := range []bool{true, false} {
		want, pinned := refChunkCandidates(eh.d, eh.dest, strict)
		got := h.ChunkCandidates(strict)
		if !slices.Equal(got, want) {
			e.t.Fatalf("EvictOne call %d at cycle %d, strict=%v:\nindexed   %+v\nreference %+v",
				e.calls, eh.d.eng.Now(), strict, got, want)
		}
		e.pinned += pinned
		e.listed += len(want)
	}
	e.calls++
	return e.EvictionEngine.EvictOne(h)
}

// TestChunkCandidatesMatchReferenceWalk runs real workloads under
// eviction pressure and checks, at every eviction-engine call, that the
// evictable-index collection lists exactly the unpinned chunks of the
// full walk, field for field and in order.
func TestChunkCandidatesMatchReferenceWalk(t *testing.T) {
	for _, name := range []string{"bfs", "ra", "sssp"} {
		b := workloads.MustGet(name)(0.3)
		for _, pct := range []uint64{125, 150} {
			for _, repl := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
				t.Run(fmt.Sprintf("%s/%d/%v", name, pct, repl), func(t *testing.T) {
					cfg := config.Default()
					cfg.Replacement = repl
					cfg = cfg.WithOversubscription(b.WorkingSet(), pct)
					pipe, err := mm.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ev := &refCheckingEngine{EvictionEngine: pipe.Evictor, t: t}
					pipe.Evictor = ev
					eng := sim.NewEngine()
					eng.SetEventBudget(200_000_000)
					d := NewWithPipeline(eng, cfg, b.Space, pipe)
					g := gpu.New(eng, cfg, d, d.Stats())
					for _, k := range b.Kernels {
						g.RunSync(k)
					}
					eng.Run()
					if err := d.CheckConsistency(); err != nil {
						t.Fatal(err)
					}
					if ev.calls == 0 || ev.pinned == 0 || ev.listed == 0 {
						t.Fatalf("vacuous run: %d calls, %d pinned, %d listed", ev.calls, ev.pinned, ev.listed)
					}
				})
			}
		}
	}
}

// TestNoPinnedVictimCheckTrips corrupts the evictable index so that a
// chunk with blocks on the wire is offered to the relaxed pass, and
// expects the invariant checker's no-pinned-victim check to reject the
// eviction.
func TestNoPinnedVictimCheckTrips(t *testing.T) {
	r := newRig(t, nil, 4<<20)
	r.d.SetObs(&obs.Run{CheckEvery: 1})
	r.d.Access(r.a.Base, false, func() {})
	for r.d.inFlightTotal == 0 && r.eng.Step() {
	}
	cs := r.d.chunkAt(memunits.ChunkOf(r.a.Base))
	if cs == nil || cs.inFlightBlocks == 0 {
		t.Fatal("no migration on the wire")
	}
	if r.d.evictOne(nil) {
		t.Fatal("evicted while the only touched chunk is in flight")
	}
	c := cs.info.Num
	r.d.evictable[c/64] |= 1 << (c % 64)
	defer func() {
		v, ok := recover().(*obs.Violation)
		if !ok || v.Check != "no-pinned-victim" {
			t.Fatalf("recovered %v, want a no-pinned-victim *obs.Violation", v)
		}
	}()
	r.d.evictOne(nil)
	t.Fatal("evicting a chunk with blocks on the wire passed the check")
}

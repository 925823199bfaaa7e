package uvm

import (
	"fmt"
	"slices"
	"strings"
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
		if cs == nil || cs.blocks[resident] == 0 || cs == dest {
			continue
		}
		pinned := cs.blocks[inFlight] > 0
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

// refBlockCandidates is the 64KB block collection as a full walk over
// every block slot: each resident block outside dest is scored, then
// dropped if the strict pass's recency guard pins it. It returns the
// surviving candidates and how many resident blocks were pinned.
func refBlockCandidates(d *Driver, dest *chunkState, strict bool) (cands []evict.Candidate, pinnedCount int) {
	now := d.eng.Now()
	for b := range d.blockArr {
		bs := &d.blockArr[b]
		if bs.phase != resident || d.chunkArr[memunits.ChunkOfBlock(memunits.BlockNum(b))] == dest {
			continue
		}
		if strict && d.cfg.EvictionRecencyGuard > 0 && now-bs.lastAccess < d.cfg.EvictionRecencyGuard {
			pinnedCount++
			continue
		}
		cands = append(cands, evict.Candidate{
			Unit:       uint64(b),
			LastAccess: bs.lastAccess,
			Score:      d.ctrs.Count(uint64(b)),
			Dirty:      bs.dirty,
			Full:       true,
		})
	}
	return cands, pinnedCount
}

// refCheckingEngine wraps an EvictionEngine and, at every EvictOne,
// asserts that the host's candidate list equals the reference walk for
// both passes before delegating.
type refCheckingEngine struct {
	mm.EvictionEngine
	t   *testing.T
	ref func(d *Driver, dest *chunkState, strict bool) ([]evict.Candidate, int)
	// calls counts EvictOne calls, pinned the pinned units the
	// reference dropped, listed the candidates it kept.
	calls, pinned, listed int
}

func (e *refCheckingEngine) EvictOne(h mm.EvictionHost) bool {
	e.t.Helper()
	d := (*Driver)(h.(*evictionHost))
	for _, strict := range []bool{true, false} {
		want, pinned := e.ref(d, d.dest, strict)
		got := h.Candidates(strict)
		if !slices.Equal(got, want) {
			e.t.Fatalf("EvictOne call %d at cycle %d, strict=%v:\nlisted    %+v\nreference %+v",
				e.calls, d.eng.Now(), strict, got, want)
		}
		e.pinned += pinned
		e.listed += len(want)
	}
	e.calls++
	return e.EvictionEngine.EvictOne(h)
}

// runReferenceChecked runs real workloads under eviction pressure at
// the given granularity with a refCheckingEngine around the configured
// engine, so every eviction-engine call compares the host's list with
// ref field for field and in order.
func runReferenceChecked(t *testing.T, gran uint64, ref func(*Driver, *chunkState, bool) ([]evict.Candidate, int)) {
	for _, name := range []string{"bfs", "ra", "sssp"} {
		b := workloads.MustGet(name)(0.3)
		for _, pct := range []uint64{125, 150} {
			for _, repl := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
				t.Run(fmt.Sprintf("%s/%d/%v", name, pct, repl), func(t *testing.T) {
					cfg := config.Default()
					cfg.Replacement = repl
					cfg.EvictionGranularity = gran
					cfg = cfg.WithOversubscription(b.WorkingSet(), pct)
					pipe, err := mm.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ev := &refCheckingEngine{EvictionEngine: pipe.Evictor, t: t, ref: ref}
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

// TestChunkCandidatesMatchReferenceWalk checks, at every eviction-engine
// call, that the evictable-index collection lists exactly the unpinned
// chunks of the full walk.
func TestChunkCandidatesMatchReferenceWalk(t *testing.T) {
	runReferenceChecked(t, memunits.ChunkSize, refChunkCandidates)
}

// TestBlockCandidatesMatchReferenceWalk is the same check at 64KB
// granularity against a walk over every block slot.
func TestBlockCandidatesMatchReferenceWalk(t *testing.T) {
	runReferenceChecked(t, memunits.BlockSize, refBlockCandidates)
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
	if cs == nil || cs.blocks[inFlight] == 0 {
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

// TestEvictRefusesUnlistedUnit hands Evict units that no relaxed pass
// lists, at both granularities, and expects each to panic before any
// state changes: an unmaterialized or non-evictable chunk, the
// destination chunk, a block on host and a resident block of the
// destination chunk.
func TestEvictRefusesUnlistedUnit(t *testing.T) {
	for _, gran := range []uint64{memunits.ChunkSize, memunits.BlockSize} {
		r := newRig(t, func(c *config.Config) {
			c.DeviceMemBytes = 4 * memunits.ChunkSize
			c.EvictionGranularity = gran
		}, 8*memunits.ChunkSize)
		touchAll(t, r)
		d := r.d
		var onHost, live *chunkState
		for _, cs := range d.chunkArr {
			switch {
			case cs == nil:
			case cs.blocks[resident] == 0 && onHost == nil:
				onHost = cs
			case d.isEvictable(cs.info.Num) && live == nil:
				live = cs
			}
		}
		if onHost == nil || live == nil {
			t.Fatalf("granularity %d: want an evicted and a resident chunk", gran)
		}
		type unlisted struct {
			what string
			unit uint64
			dest *chunkState
		}
		cases := []unlisted{
			{"block on host", uint64(onHost.info.FirstBlock()), nil},
			{"block of the destination chunk", uint64(live.info.FirstBlock()), live},
		}
		if gran == memunits.ChunkSize {
			cases = []unlisted{
				{"unmaterialized chunk", uint64(len(d.chunkArr)), nil},
				{"evicted chunk", uint64(onHost.info.Num), nil},
				{"destination chunk", uint64(live.info.Num), live},
			}
		}
		for _, tc := range cases {
			t.Run(tc.what, func(t *testing.T) {
				d.dest = tc.dest
				evicted := d.st.EvictedPages
				defer func() {
					d.dest = nil
					msg, _ := recover().(string)
					if !strings.Contains(msg, "which no candidate pass lists") {
						t.Fatalf("Evict(%d) recovered %q, want the unlisted-unit panic", tc.unit, msg)
					}
					if d.st.EvictedPages != evicted {
						t.Fatal("the refused eviction changed the evicted-page count")
					}
				}()
				(*evictionHost)(d).Evict(tc.unit, false)
			})
		}
	}
}

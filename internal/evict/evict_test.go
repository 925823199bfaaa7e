package evict

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uvmsim/internal/config"
)

func TestNewDispatch(t *testing.T) {
	if New(config.ReplaceLRU).Name() != "LRU" {
		t.Error("LRU dispatch wrong")
	}
	if New(config.ReplaceLFU).Name() != "LFU" {
		t.Error("LFU dispatch wrong")
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown policy did not panic")
		}
	}()
	New(config.ReplacementPolicy(42))
}

func TestLRUPicksOldest(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 300, Full: true},
		{Unit: 1, LastAccess: 100, Full: true},
		{Unit: 2, LastAccess: 200, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("SelectVictim = %d,%v want 1,true", idx, ok)
	}
}

func TestLRUPrefersFullChunks(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 10, Full: false}, // oldest but partial
		{Unit: 1, LastAccess: 500, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("full chunk not preferred: got %d", idx)
	}
}

func TestLRURelaxesToPartialWhenNoFull(t *testing.T) {
	p := New(config.ReplaceLRU)
	cands := []Candidate{
		{Unit: 0, LastAccess: 10, Full: false},
		{Unit: 1, LastAccess: 5, Full: false},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("partial fallback wrong: got %d,%v", idx, ok)
	}
}

func TestLFUPicksColdest(t *testing.T) {
	p := New(config.ReplaceLFU)
	cands := []Candidate{
		{Unit: 0, Score: 1000, LastAccess: 1, Full: true},
		{Unit: 1, Score: 5, LastAccess: 900, Full: true}, // cold despite recent
		{Unit: 2, Score: 400, LastAccess: 2, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("LFU did not pick coldest: got %d", idx)
	}
}

func TestLFUPrefersCleanAmongEqualScores(t *testing.T) {
	p := New(config.ReplaceLFU)
	cands := []Candidate{
		{Unit: 0, Score: 10, Dirty: true, LastAccess: 1, Full: true},
		{Unit: 1, Score: 10, Dirty: false, LastAccess: 2, Full: true},
		{Unit: 2, Score: 900, Dirty: false, LastAccess: 3, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 1 {
		t.Fatalf("LFU did not prefer clean unit: got %d", idx)
	}
}

func TestLFUUniformFallsBackToLRU(t *testing.T) {
	p := New(config.ReplaceLFU)
	// Scores within 12.5% of each other: regular application. The pick
	// must follow LastAccess (unit 2), not the marginally lowest score
	// (unit 0).
	cands := []Candidate{
		{Unit: 0, Score: 95, LastAccess: 500, Full: true},
		{Unit: 1, Score: 100, LastAccess: 400, Full: true},
		{Unit: 2, Score: 98, LastAccess: 100, Full: true},
	}
	idx, ok := p.SelectVictim(cands)
	if !ok || idx != 2 {
		t.Fatalf("uniform fallback wrong: got %d", idx)
	}
}

func TestLFUHotColdSplitIgnoresRecency(t *testing.T) {
	// Irregular application shape: one hot chunk touched constantly, one
	// cold chunk touched long ago. LRU would evict the cold one too —
	// but make the cold chunk the *recent* one to show LFU differs.
	cands := []Candidate{
		{Unit: 0, Score: 100000, LastAccess: 50, Full: true}, // hot, old
		{Unit: 1, Score: 3, LastAccess: 900, Full: true},     // cold, recent
	}
	lfuIdx, _ := New(config.ReplaceLFU).SelectVictim(cands)
	lruIdx, _ := New(config.ReplaceLRU).SelectVictim(cands)
	if lfuIdx != 1 {
		t.Fatalf("LFU evicted the hot chunk")
	}
	if lruIdx != 0 {
		t.Fatalf("LRU should have evicted the old (hot) chunk")
	}
}

func TestEmptyCandidates(t *testing.T) {
	for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
		if _, ok := New(kind).SelectVictim(nil); ok {
			t.Fatalf("%v selected from empty set", kind)
		}
	}
}

// Property: the selected victim is always eligible (full if any full
// candidate exists), for both policies and arbitrary inputs.
func TestVictimEligibilityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%12 + 1
		cands := make([]Candidate, count)
		anyFull := false
		for i := range cands {
			cands[i] = Candidate{
				Unit:       uint64(i),
				LastAccess: uint64(rng.Intn(1000)),
				Score:      uint64(rng.Intn(1000)),
				Dirty:      rng.Intn(2) == 0,
				Full:       rng.Intn(2) == 0,
			}
			anyFull = anyFull || cands[i].Full
		}
		for _, kind := range []config.ReplacementPolicy{config.ReplaceLRU, config.ReplaceLFU} {
			idx, ok := New(kind).SelectVictim(cands)
			if !ok {
				return false
			}
			if anyFull && !cands[idx].Full {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LRU's victim has the minimum LastAccess among same-class
// (full/partial) eligible candidates.
func TestLRUMinimalityProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		cands := make([]Candidate, len(times))
		for i, tm := range times {
			cands[i] = Candidate{Unit: uint64(i), LastAccess: uint64(tm), Full: true}
		}
		idx, ok := New(config.ReplaceLRU).SelectVictim(cands)
		if !ok {
			return false
		}
		for _, c := range cands {
			if c.LastAccess < cands[idx].LastAccess {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table tests for the fallback and tie-break edge cases the driver can
// reach: all scores zero, and fully tied keys.
func TestSelectVictimEdgeCases(t *testing.T) {
	for name, tc := range map[string]struct {
		policy config.ReplacementPolicy
		cands  []Candidate
		want   int
	}{
		// All-zero scores must be treated as explicitly uniform: the
		// LFU policy falls back to LRU and picks the oldest, not the
		// first zero-score entry its cold-first pass happens to see.
		"allZeroScoresFallBackToLRU": {
			policy: config.ReplaceLFU,
			cands: []Candidate{
				{Unit: 0, Score: 0, LastAccess: 50, Full: true},
				{Unit: 1, Score: 0, LastAccess: 10, Full: true},
				{Unit: 2, Score: 0, LastAccess: 30, Full: true},
			},
			want: 1,
		},
		// Candidates equal on (score, dirty, LastAccess) tie-break by
		// the lowest unit number — even when the list is not sorted.
		"fullTieBreaksByUnitLFU": {
			policy: config.ReplaceLFU,
			cands: []Candidate{
				{Unit: 7, Score: 2, LastAccess: 10, Full: true},
				{Unit: 3, Score: 2, LastAccess: 10, Full: true},
				{Unit: 5, Score: 100, LastAccess: 10, Full: true},
			},
			want: 1,
		},
		"fullTieBreaksByUnitLRU": {
			policy: config.ReplaceLRU,
			cands: []Candidate{
				{Unit: 9, LastAccess: 10, Full: true},
				{Unit: 2, LastAccess: 10, Full: true},
				{Unit: 4, LastAccess: 10, Full: true},
			},
			want: 1,
		},
	} {
		t.Run(name, func(t *testing.T) {
			idx, ok := New(tc.policy).SelectVictim(tc.cands)
			if !ok || idx != tc.want {
				t.Fatalf("SelectVictim = (%d, %v), want (%d, true)", idx, ok, tc.want)
			}
		})
	}
}

// Property: selection is order-independent — shuffling the candidate
// list never changes the chosen unit (the Unit tie-break makes the
// ordering total).
func TestSelectionOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64, scores []uint8, pol bool) bool {
		if len(scores) == 0 {
			return true
		}
		policy := config.ReplaceLRU
		if pol {
			policy = config.ReplaceLFU
		}
		cands := make([]Candidate, len(scores))
		for i, sc := range scores {
			cands[i] = Candidate{
				Unit:       uint64(i),
				Score:      uint64(sc),
				LastAccess: uint64(sc % 4), // force frequent ties
				Dirty:      sc%2 == 0,
				Full:       true,
			}
		}
		idx, ok := New(policy).SelectVictim(cands)
		if !ok {
			return false
		}
		wantUnit := cands[idx].Unit
		rng := rand.New(rand.NewSource(seed))
		shuffled := append([]Candidate(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		idx2, ok2 := New(policy).SelectVictim(shuffled)
		return ok2 && shuffled[idx2].Unit == wantUnit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

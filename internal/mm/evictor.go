package mm

import (
	"slices"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
)

// evictorNames is the fixed, sorted set of EvictionEngine names.
var evictorNames = []string{"lfu", "lru", "none"}

// EvictorNames lists the EvictionEngine names, sorted.
func EvictorNames() []string { return slices.Clone(evictorNames) }

// NewEvictor builds the named EvictionEngine ("" = the configured
// replacement policy).
func NewEvictor(name string, cfg config.Config) (EvictionEngine, error) {
	switch canon(name) {
	case "":
		return unitEngine{evict.New(cfg.Replacement)}, nil
	case "lru":
		return unitEngine{evict.New(config.ReplaceLRU)}, nil
	case "lfu":
		return unitEngine{evict.New(config.ReplaceLFU)}, nil
	case "none":
		return refusingEngine{}, nil
	}
	return nil, unknown("eviction engine", name, evictorNames)
}

// unitEngine is the default eviction engine: it runs the configured
// replacement policy (LRU or counter-driven LFU) over the host's
// candidates, first under the strict pinning rules and, only when
// nothing is eligible, under the relaxed rules that guarantee forward
// progress.
type unitEngine struct {
	replace evict.Policy
}

// Name returns the replacement policy name ("LRU", "LFU"); it keys the
// per-policy selection metrics.
func (e unitEngine) Name() string { return e.replace.Name() }

// EvictOne selects and evicts one unit: strict pass first, relaxed pass
// as the forward-progress fallback.
func (e unitEngine) EvictOne(h EvictionHost) bool {
	for _, strict := range [...]bool{true, false} {
		cands := h.Candidates(strict)
		if idx, ok := e.replace.SelectVictim(cands); ok {
			h.Evict(cands[idx].Unit, strict)
			return true
		}
	}
	return false
}

// refusingEngine never evicts: it models a driver without replacement,
// where capacity misses past the first fill degrade to remote access
// instead of recycling device memory. It doubles as the canonical
// exercise of the driver's demotion fallback (a stalled migration with
// nothing in flight is re-served remotely rather than hanging).
type refusingEngine struct{}

// Name identifies the engine.
func (refusingEngine) Name() string { return "none" }

// EvictOne always refuses.
func (refusingEngine) EvictOne(EvictionHost) bool { return false }

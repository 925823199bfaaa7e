package mm

import (
	"slices"

	"uvmsim/internal/config"
	"uvmsim/internal/prefetch"
)

// governorNames is the fixed, sorted set of PrefetchGovernor names:
// the learned governor and the built-in prefetcher kinds.
var governorNames = []string{"bandit-pf", "none", "sequential", "tree"}

// PrefetchGovernorNames lists the PrefetchGovernor names, sorted.
func PrefetchGovernorNames() []string { return slices.Clone(governorNames) }

// NewPrefetchGovernor builds the named PrefetchGovernor ("" = the
// configured prefetcher kind).
func NewPrefetchGovernor(name string, cfg config.Config) (PrefetchGovernor, error) {
	switch canon(name) {
	case "":
		return kindGovernor{kind: cfg.Prefetcher}, nil
	case "tree":
		return kindGovernor{kind: config.PrefetchTree}, nil
	case "none":
		return kindGovernor{kind: config.PrefetchNone}, nil
	case "sequential":
		return kindGovernor{kind: config.PrefetchSequential}, nil
	case "bandit-pf":
		return newBanditGovernor(cfg), nil
	}
	return nil, unknown("prefetch governor", name, governorNames)
}

// kindGovernor adapts the built-in prefetcher kinds (tree, none,
// sequential) to the PrefetchGovernor seam: each chunk gets a
// prefetch.Chunk of the selected kind.
type kindGovernor struct {
	kind config.PrefetcherKind
}

// NewChunk returns per-chunk prefetch state of the configured kind.
func (g kindGovernor) NewChunk(nBlocks int) ChunkPrefetcher {
	return prefetch.NewChunk(g.kind, nBlocks)
}

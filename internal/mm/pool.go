package mm

import (
	"slices"

	"uvmsim/internal/config"
	"uvmsim/internal/counters"
)

// PoolAccess describes one GPU access to a block resident in the CXL
// pooled tier, as seen by the pool controller (internal/cxl) when it
// consults the PoolPolicy stage.
type PoolAccess struct {
	// Block is the pool block number (64KB basic-block granularity,
	// same unit as the driver's residency state).
	Block uint64
	// GPU is the dense id of the accessing GPU.
	GPU int
	// Write reports the access direction.
	Write bool
	// Replicated reports whether the accessing GPU already holds a
	// read-only replica of the block.
	Replicated bool
}

// PoolDecision is the controller action a PoolPolicy selects for one
// pooled-block access.
type PoolDecision int

const (
	// PoolRemote serves the access over the CXL port and leaves the
	// block in the pool.
	PoolRemote PoolDecision = iota
	// PoolReplicate grants the accessing GPU a read-only replica: the
	// block is copied into the GPU's device tier but stays valid in the
	// pool, and any later write from any GPU invalidates every replica.
	// Only meaningful for reads.
	PoolReplicate
	// PoolPromote migrates the block exclusively to the accessing GPU's
	// device tier, removing it from the pool (and invalidating replicas
	// elsewhere).
	PoolPromote
)

// String names the decision.
func (d PoolDecision) String() string {
	switch d {
	case PoolRemote:
		return "remote"
	case PoolReplicate:
		return "replicate"
	case PoolPromote:
		return "promote"
	default:
		return "PoolDecision(?)"
	}
}

// PoolPolicy decides, per GPU access to a pool-resident block, whether
// the block is served remotely, replicated read-only into the accessor,
// or promoted (migrated) to it. The controller bumps the per-GPU
// counter file before consulting the policy, so the counts already
// include the current access. Implementations must be deterministic
// functions of the access sequence, the counter state and their
// configuration.
type PoolPolicy interface {
	// Name identifies the policy (the name that selects it).
	Name() string
	// Decide selects the action for the access given the pool's per-GPU
	// counter file.
	Decide(a PoolAccess, ctrs *counters.PerGPU) PoolDecision
}

// poolPolicyNames is the fixed, sorted set of PoolPolicy names.
var poolPolicyNames = []string{"cxl-migrate", "cxl-repl", "pool-remote"}

// PoolPolicyNames lists the PoolPolicy names, sorted.
func PoolPolicyNames() []string { return slices.Clone(poolPolicyNames) }

// NewPoolPolicy builds the named PoolPolicy ("" = cxl-repl).
func NewPoolPolicy(name string, cfg config.Config) (PoolPolicy, error) {
	switch canon(name) {
	case "", "cxl-repl":
		return &cxlReplPolicy{threshold: cfg.CXLThreshold()}, nil
	case "cxl-migrate":
		return cxlMigratePolicy{}, nil
	case "pool-remote":
		return poolRemotePolicy{}, nil
	}
	return nil, unknown("pool policy", name, poolPolicyNames)
}

// cxlReplPolicy is the default counter-arbitrated policy, implementing
// the SNIPPETS.md cxl_page_controller agreement: a read whose counter
// clears the threshold with no live writers earns a read-only replica;
// a sole writer whose write count exceeds every other GPU's read count
// by the threshold wins a writable (exclusive) promotion; everything
// else stays remote.
type cxlReplPolicy struct {
	threshold uint64
}

func (p *cxlReplPolicy) Name() string { return "cxl-repl" }

func (p *cxlReplPolicy) Decide(a PoolAccess, ctrs *counters.PerGPU) PoolDecision {
	if a.Write {
		if ctrs.WriteWinner(a.Block, a.GPU, p.threshold) {
			return PoolPromote
		}
		return PoolRemote
	}
	if !a.Replicated && ctrs.ReadOnly(a.Block, a.GPU, p.threshold) {
		return PoolReplicate
	}
	return PoolRemote
}

// cxlMigratePolicy is the naive first-touch baseline: every access
// promotes the block to the touching GPU, replicating nothing. It is
// what TestReplicationBeatsNaiveMigration compares cxl-repl against —
// under shared read-mostly data it ping-pongs pages between GPUs.
type cxlMigratePolicy struct{}

func (cxlMigratePolicy) Name() string { return "cxl-migrate" }

func (cxlMigratePolicy) Decide(a PoolAccess, _ *counters.PerGPU) PoolDecision {
	return PoolPromote
}

// poolRemotePolicy never moves anything: the pool serves every access
// over the CXL port (the zero-copy-only ablation).
type poolRemotePolicy struct{}

func (poolRemotePolicy) Name() string { return "pool-remote" }

func (poolRemotePolicy) Decide(PoolAccess, *counters.PerGPU) PoolDecision {
	return PoolRemote
}

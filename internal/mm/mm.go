// Package mm defines the staged memory-management pipeline of the UVM
// driver: four narrow, independently replaceable stages that together
// express every policy decision the driver makes, plus a name-keyed
// registry so command-line tools, sweeps and experiments can select
// implementations by string.
//
// The stages mirror the life of a memory transaction that misses device
// memory:
//
//	MigrationPlanner  — migrate or serve remotely? (wraps policy.Decider)
//	FaultBatcher      — batch formation for far-faults awaiting the
//	                    45us driver handling latency
//	PrefetchGovernor  — which neighbour blocks ride along with a
//	                    migrating fault (wraps prefetch.Chunk)
//	EvictionEngine    — victim selection under capacity pressure (wraps
//	                    evict.Policy via an EvictionHost view of driver
//	                    state)
//
// The uvm.Driver composes one instance of each and owns only page-table
// state and event sequencing. The built-in implementations reproduce the
// paper's heuristics bit-for-bit; alternatives (a thrash-guard planner,
// a deduplicating batcher, a refusing evictor) register under their own
// names and drop in without touching the driver core.
//
// Stage instances are per driver: a FaultBatcher is stateful and must
// never be shared between drivers (multi-GPU clusters build one
// Pipeline per GPU). Planners, governors and the built-in evictors are
// stateless, but the contract is per-driver ownership throughout.
package mm

import (
	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
	"uvmsim/internal/policy"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
)

// Access describes one host-resident block access for the planner: the
// block, the direction, its counter state and the device-memory state
// the threshold schemes depend on.
type Access struct {
	// Block is the 64KB basic block being accessed.
	Block memunits.BlockNum
	// Write reports the access direction.
	Write bool
	// Count is the block's access-counter value including this access.
	Count uint64
	// RoundTrips is the block's eviction round-trip count r.
	RoundTrips uint64
	// Mem is the device-memory occupancy snapshot.
	Mem policy.MemState
	// Now is the simulated time of the access. Learned planners measure
	// their epochs against it; basing any planner state on wall clock
	// instead would break the byte-identical determinism guarantee.
	Now sim.Cycle
}

// MigrationPlanner decides, per access to a non-resident block, whether
// the block migrates to device memory or the access is served remotely
// (zero-copy) from host memory. Implementations must be deterministic
// functions of the Access sequence and their own configuration: the
// built-in threshold planners are pure, while the learned planners
// (reuse-dist, bandit-ts) carry state that evolves only from the
// accesses they have seen and the configured seed — never from wall
// clock or unseeded randomness.
type MigrationPlanner interface {
	// Name identifies the planner (registry key).
	Name() string
	// ShouldMigrate reports whether the access triggers a migration.
	ShouldMigrate(a Access) bool
}

// FaultBatcher accumulates far-faulting blocks into the batch the
// driver processes after the fault-handling latency. Implementations
// own the returned slices and may recycle them across rounds.
type FaultBatcher interface {
	// Name identifies the batcher (registry key).
	Name() string
	// Add records a far-faulting block. opened reports whether this
	// fault opened a new batch round, in which case the driver
	// schedules the round's close after the fault-handling latency.
	Add(b memunits.BlockNum) (opened bool)
	// Close returns the batch accumulated since the last Close and
	// opens the next round. The slice is valid until the next Add.
	Close() []memunits.BlockNum
	// Open reports whether a batch is currently accumulating (a close
	// event is scheduled).
	Open() bool
}

// ChunkPrefetcher is the per-chunk state a PrefetchGovernor hands the
// driver: the fault-time migration grouping plus the occupancy tree the
// eviction machinery keeps in sync with block residency.
type ChunkPrefetcher interface {
	// OnFault records that block index i (chunk-relative) faulted and
	// returns the complete ascending list of chunk-relative block
	// indices to migrate together, always including i. Returned blocks
	// are marked occupied in the tree. The slice is the chunk's and valid
	// until its next OnFault.
	OnFault(i int) []int
	// Tree exposes the chunk's occupancy tree. The driver clears and
	// re-marks it on eviction, and the 2MB replacement policy reads
	// Full() from it, so every implementation must keep it accurate.
	Tree() *prefetch.Tree
}

// PrefetchGovernor creates the per-chunk prefetch state when a chunk is
// first touched.
type PrefetchGovernor interface {
	// Name identifies the governor (registry key).
	Name() string
	// NewChunk returns fresh prefetch state for a chunk of nBlocks
	// 64KB basic blocks (a power of two in [1, 32]).
	NewChunk(nBlocks int) ChunkPrefetcher
}

// EvictionHost is the view of driver state an EvictionEngine works
// against: candidate enumeration and victim application. The driver
// implements it; engines never touch page tables directly.
//
// Protocol: collect candidates (as often as needed), then Evict exactly
// one of them by index. Any candidate slice is invalidated by the next
// host call. A collection lists exactly the units its pass may evict:
// pinned units are left out, and the chunk currently being migrated
// into is never listed.
type EvictionHost interface {
	// ChunkCandidates returns the resident 2MB chunks the pass may
	// evict, ascending by chunk number. strict leaves out chunks under
	// the standard pinning rules (queued or in-flight migrations) and
	// the recency guard; relaxed (strict=false) leaves out only chunks
	// with blocks on the wire, guaranteeing forward progress.
	ChunkCandidates(strict bool) []evict.Candidate
	// BlockCandidates is the 64KB-granularity equivalent: every
	// resident basic block outside the destination chunk, ascending by
	// block number. strict leaves out blocks inside the recency guard.
	BlockCandidates(strict bool) []evict.Candidate
	// Evict evicts the idx-th candidate of the most recent collection,
	// handling residency teardown, TLB shootdowns, accounting and dirty
	// write-back. strict tags which selection pass chose the victim
	// (observability and the no-pinned-victim invariant).
	Evict(idx int, strict bool)
}

// EvictionEngine frees device memory one eviction unit at a time.
type EvictionEngine interface {
	// Name identifies the engine. For the built-in engines this is the
	// replacement policy name ("LRU", "LFU"), which keys the
	// observability metrics.
	Name() string
	// EvictOne selects and evicts one unit via the host. It returns
	// false when no victim is available right now; the driver then
	// retries when in-flight work completes, or — if nothing is in
	// flight — demotes the stalled migration to remote access.
	EvictOne(h EvictionHost) bool
}

// MetricPublisher is optionally implemented by pipeline stages that
// expose internal state to the observability layer (internal/obs). The
// driver discovers it by type assertion when instruments attach and
// registers a provider calling PublishMetrics at collection time, so
// publication never perturbs simulated behaviour. Learned stages use it
// to surface epoch counts, arm pulls and exploration draws.
type MetricPublisher interface {
	// PublishMetrics emits the stage's current metric values. Names
	// should be dotted and stage-prefixed (e.g. "mm.bandit_ts.epochs").
	PublishMetrics(emit func(name string, value uint64))
}

// Pipeline bundles one instance of every stage for one driver.
type Pipeline struct {
	Batcher  FaultBatcher
	Planner  MigrationPlanner
	Evictor  EvictionEngine
	Prefetch PrefetchGovernor
}

// Build resolves cfg.MMPipeline against the registry, returning a fresh
// per-driver Pipeline. Empty names select the built-in stages derived
// from cfg.Policy, cfg.Replacement and cfg.Prefetcher, reproducing the
// pre-pipeline driver exactly.
func Build(cfg config.Config) (Pipeline, error) {
	var (
		p   Pipeline
		err error
	)
	if p.Batcher, err = NewBatcher(cfg.MMPipeline.Batcher, cfg); err != nil {
		return Pipeline{}, err
	}
	if p.Planner, err = NewPlanner(cfg.MMPipeline.Planner, cfg); err != nil {
		return Pipeline{}, err
	}
	if p.Evictor, err = NewEvictor(cfg.MMPipeline.Evictor, cfg); err != nil {
		return Pipeline{}, err
	}
	if p.Prefetch, err = NewPrefetchGovernor(cfg.MMPipeline.Prefetcher, cfg); err != nil {
		return Pipeline{}, err
	}
	return p, nil
}

// Package mm defines the staged memory-management pipeline of the UVM
// driver: four narrow stages that together express every policy
// decision the driver makes, each drawn from a small closed set of
// implementations that command-line tools, sweeps and the service
// select by name.
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
//	                    evict.Policy over the candidates an EvictionHost
//	                    lists; the host evicts the chosen unit)
//
// The uvm.Driver composes one instance of each and owns only page-table
// state and event sequencing. The built-in implementations reproduce the
// paper's heuristics bit-for-bit; the alternatives (the thrash-guard and
// learned planners, the learned prefetch governor, a refusing evictor)
// are selected by name. Each kind has one constructor, New<Kind>, a
// switch over its fixed names in which "" is the built-in stage the
// configuration's enums select, and one sorted <Kind>Names list. Build
// is the one place a PipelineSpec becomes stages; CheckSpec runs its
// name checks alone, so a service can refuse a bad spec at submit.
//
// Stage instances are per driver: a FaultBatcher is stateful and must
// never be shared between drivers (multi-GPU clusters build one
// Pipeline per GPU). Planners, governors and the built-in evictors are
// stateless, but the contract is per-driver ownership throughout.
package mm

import (
	"fmt"
	"slices"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/evict"
	"uvmsim/internal/memunits"
	"uvmsim/internal/policy"
	"uvmsim/internal/prefetch"
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
}

// MigrationPlanner decides, per access to a non-resident block, whether
// the block migrates to device memory or the access is served remotely
// (zero-copy) from host memory. Implementations must be deterministic
// functions of the Access sequence and their own configuration: the
// built-in threshold planners are pure, while the learned reuse-dist
// planner carries state that evolves only from the accesses it has seen
// and the configured seed — never from wall clock or unseeded
// randomness.
type MigrationPlanner interface {
	// ShouldMigrate reports whether the access triggers a migration.
	ShouldMigrate(a Access) bool
}

// FaultBatcher accumulates far-faulting blocks into the batch the
// driver processes after the fault-handling latency. Implementations
// own the returned slices and may recycle them across rounds.
type FaultBatcher interface {
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
	// NewChunk returns fresh prefetch state for a chunk of nBlocks
	// 64KB basic blocks (a power of two in [1, 32]).
	NewChunk(nBlocks int) ChunkPrefetcher
}

// EvictionHost is the view of driver state an EvictionEngine works
// against: the units it may evict and the eviction of one of them. The
// driver implements it; engines never touch page tables directly.
//
// A unit is a 2MB chunk or a 64KB basic block, whichever the
// configured eviction granularity names; the host alone reads that
// setting. A candidate list holds exactly the units its pass may evict:
// pinned units are left out, and the chunk currently being migrated
// into is never listed.
type EvictionHost interface {
	// Candidates returns the units the pass may evict, ascending by
	// unit number. strict leaves out units under the standard pinning
	// rules (chunks with queued or in-flight migrations) and the
	// recency guard; relaxed (strict=false) leaves out only chunks with
	// blocks on the wire, guaranteeing forward progress. The slice is
	// the host's and valid until its next Candidates call.
	Candidates(strict bool) []evict.Candidate
	// Evict evicts the unit of a listed candidate, handling residency
	// teardown, TLB shootdowns, accounting and dirty write-back. strict
	// tags which pass chose the victim (observability and the
	// no-pinned-victim invariant). It panics on a unit the relaxed pass
	// could not have listed.
	Evict(unit uint64, strict bool)
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
// to surface decision counts, arm pulls and exploration draws.
type MetricPublisher interface {
	// PublishMetrics emits the stage's current metric values. Names
	// should be dotted and stage-prefixed (e.g. "mm.bandit_pf.chunks").
	PublishMetrics(emit func(name string, value uint64))
}

// Pipeline bundles one instance of every stage for one driver.
type Pipeline struct {
	Batcher  FaultBatcher
	Planner  MigrationPlanner
	Evictor  EvictionEngine
	Prefetch PrefetchGovernor
}

// Build resolves cfg.MMPipeline into a fresh per-driver Pipeline; it is
// the one place a spec becomes stages. Empty names select the built-ins
// derived from cfg.Policy, cfg.Replacement and cfg.Prefetcher,
// reproducing the pre-pipeline driver exactly.
func Build(cfg config.Config) (Pipeline, error) {
	spec := cfg.MMPipeline
	if err := CheckSpec(spec); err != nil {
		return Pipeline{}, err
	}
	// CheckSpec accepted every name, so no constructor below can fail.
	b, _ := NewBatcher(spec.Batcher, cfg)
	p, _ := NewPlanner(spec.Planner, cfg)
	e, _ := NewEvictor(spec.Evictor, cfg)
	g, _ := NewPrefetchGovernor(spec.Prefetcher, cfg)
	return Pipeline{Batcher: b, Planner: p, Evictor: e, Prefetch: g}, nil
}

// CheckSpec reports the first name in spec that selects no stage, in
// Build's order. It only looks names up and builds nothing.
func CheckSpec(spec config.PipelineSpec) error {
	if err := check("fault batcher", spec.Batcher, batcherNames); err != nil {
		return err
	}
	if err := check("migration planner", spec.Planner, plannerNames); err != nil {
		return err
	}
	if err := check("eviction engine", spec.Evictor, evictorNames); err != nil {
		return err
	}
	return check("prefetch governor", spec.Prefetcher, governorNames)
}

// check accepts "" (the built-in stage) and every name in names.
func check(kind, name string, names []string) error {
	if c := canon(name); c == "" || slices.Contains(names, c) {
		return nil
	}
	return unknown(kind, name, names)
}

// unknown is the error for a name outside a kind's fixed set.
func unknown(kind, name string, names []string) error {
	return fmt.Errorf("mm: unknown %s %q (want one of %s)", kind, canon(name), strings.Join(names, ", "))
}

// canon normalizes a stage name: lower-case, trimmed.
func canon(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

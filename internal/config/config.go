// Package config defines the simulated-system configuration corresponding
// to Table I of the paper, with validation and derived quantities used by
// the timing models.
package config

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"uvmsim/internal/memunits"
)

// MigrationPolicy selects the delayed-migration scheme under evaluation.
// These are the four schemes compared throughout §VI of the paper.
type MigrationPolicy int

const (
	// PolicyDisabled is the state-of-the-art baseline: remote access is
	// disabled and every first touch migrates data (with prefetching).
	PolicyDisabled MigrationPolicy = iota
	// PolicyAlways delays migration behind the static access-counter
	// threshold from the start of execution (Volta behaviour).
	PolicyAlways
	// PolicyOversub enables the static threshold only once device memory
	// becomes oversubscribed; before that it behaves like PolicyDisabled.
	PolicyOversub
	// PolicyAdaptive is the paper's contribution: the dynamic threshold of
	// Equation 1, growing with memory occupancy before oversubscription
	// and with round trips and the multiplicative penalty after it.
	PolicyAdaptive
)

// String returns the name the paper uses for the policy.
func (p MigrationPolicy) String() string {
	switch p {
	case PolicyDisabled:
		return "Disabled"
	case PolicyAlways:
		return "Always"
	case PolicyOversub:
		return "Oversub"
	case PolicyAdaptive:
		return "Adaptive"
	default:
		return fmt.Sprintf("MigrationPolicy(%d)", int(p))
	}
}

// Policies lists all four schemes in the order the paper plots them.
func Policies() []MigrationPolicy {
	return []MigrationPolicy{PolicyDisabled, PolicyAlways, PolicyOversub, PolicyAdaptive}
}

// ReplacementPolicy selects the page replacement scheme.
type ReplacementPolicy int

const (
	// ReplaceLRU is the default 2MB least-recently-used queue.
	ReplaceLRU ReplacementPolicy = iota
	// ReplaceLFU is the paper's access-counter-driven simplified LFU with
	// read-only priority and LRU fallback for uniform counters.
	ReplaceLFU
)

// String returns the policy name.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceLRU:
		return "LRU"
	case ReplaceLFU:
		return "LFU"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// PrefetcherKind selects the hardware prefetcher model.
type PrefetcherKind int

const (
	// PrefetchTree is the CUDA tree-based neighborhood prefetcher
	// (default; §II-B).
	PrefetchTree PrefetcherKind = iota
	// PrefetchNone disables prefetching: only the faulting 64KB basic
	// block migrates (ablation).
	PrefetchNone
	// PrefetchSequential prefetches the next basic block after the
	// faulting one (ablation; Zheng et al. style locality prefetch).
	PrefetchSequential
)

// String returns the prefetcher name.
func (p PrefetcherKind) String() string {
	switch p {
	case PrefetchTree:
		return "Tree"
	case PrefetchNone:
		return "None"
	case PrefetchSequential:
		return "Sequential"
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(p))
	}
}

// PipelineSpec names the memory-management pipeline stages of the UVM
// driver (see internal/mm). Empty fields select the built-in stages
// derived from Policy, Replacement and Prefetcher, so the zero value
// reproduces the monolithic driver's behaviour exactly.
//
// Names are checked by mm.CheckSpec, which mm.Build and the sweep
// service's job planning call; config deliberately does not validate
// them, since the names belong to internal/mm.
type PipelineSpec struct {
	// Batcher selects the fault-batch formation stage. "accumulate" is
	// the only batcher, so "" and "accumulate" are the only legal
	// values. The field stays because every Config field is hashed into
	// the sweep service's cache keys; removing it changes those keys.
	Batcher string
	// Planner selects the migrate-vs-remote decision stage
	// (e.g. "threshold", "thrash-guard").
	Planner string
	// Evictor selects the victim-selection stage (e.g. "lru", "lfu",
	// "none"). Unlike Replacement, a named evictor survives
	// Config.WithPolicy's paper pairing.
	Evictor string
	// Prefetcher selects the prefetch-governor stage
	// (e.g. "tree", "none", "sequential").
	Prefetcher string
}

// Tag renders the non-default components as a compact
// "stage=name,stage=name" identity string, empty when every stage is
// the default. Experiment run names embed it so cells running a custom
// pipeline are distinguishable from stock cells.
func (p PipelineSpec) Tag() string {
	var parts []string
	for _, kv := range [][2]string{
		{"batcher", p.Batcher}, {"planner", p.Planner},
		{"evictor", p.Evictor}, {"prefetcher", p.Prefetcher},
	} {
		if kv[1] != "" {
			parts = append(parts, kv[0]+"="+kv[1])
		}
	}
	return strings.Join(parts, ",")
}

// Config mirrors Table I. All latencies are in GPU core cycles unless
// stated otherwise.
type Config struct {
	// GPU architecture (GeForce GTX 1080 Ti, Pascal-like).
	NumSMs        int    // streaming multiprocessors
	CoresPerSM    int    // CUDA cores per SM (occupancy model only)
	CoreClockMHz  uint64 // GPU core clock
	MaxCTAsPerSM  int    // max resident thread blocks per SM
	MaxWarpsPerSM int    // max resident warps per SM
	WarpSize      int    // threads per warp

	// Memory system.
	PageWalkLatency uint64 // page table walk, core cycles
	// TLBEntries sizes the shared GMMU TLB (4KB translations, LRU). A
	// miss pays PageWalkLatency; evictions shoot down entries. Zero
	// disables translation modelling.
	TLBEntries     int
	DRAMLatency    uint64 // local DRAM access, core cycles
	DeviceMemBytes uint64 // device memory capacity (controls oversubscription)

	// CPU-GPU interconnect (PCIe 3.0 16x).
	PCIeLatency       uint64  // one-way transfer initiation latency, core cycles
	PCIeBytesPerCycle float64 // per-direction bandwidth in bytes per core cycle
	PCIeHeaderBytes   uint64  // per-transaction overhead for small remote accesses
	// RemoteWirePenalty scales the wire occupancy of zero-copy
	// transactions relative to bulk DMA: fine-grained remote access is
	// bound by the endpoint's outstanding-request limit, reaching only a
	// fraction of link bandwidth (~1/3 on PCIe 3.0 x16).
	RemoteWirePenalty float64

	// Remote zero-copy access.
	RemoteAccessLatency uint64 // core cycles, on top of PCIe occupancy

	// UVM driver model.
	FarFaultLatencyMicros uint64 // fault batch handling latency, microseconds
	EvictionGranularity   uint64 // bytes: 2MB (default) or 64KB
	Replacement           ReplacementPolicy
	Prefetcher            PrefetcherKind

	// EvictionRecencyGuard protects chunks accessed within this many
	// cycles from counter-based (LFU) eviction: freshly migrated blocks
	// have not yet accumulated counts and would otherwise look cold and
	// be evicted immediately (the classic LFU cold-start pathology).
	// The guard is ignored when every candidate is recent, so it can
	// never deadlock replacement. Zero disables it.
	EvictionRecencyGuard uint64

	// Delayed-migration heuristic.
	Policy          MigrationPolicy
	StaticThreshold uint64 // ts: static access counter threshold
	Penalty         uint64 // p: multiplicative migration penalty
	// WriteMigrates reproduces the Volta semantics where a write to a
	// host-resident page migrates it immediately regardless of counters.
	// It is forced off under PolicyAdaptive (see DESIGN.md §2).
	WriteMigrates bool

	// MMPipeline optionally overrides the driver's memory-management
	// pipeline stages by name. The zero value keeps the
	// built-in stages selected by Policy/Replacement/Prefetcher.
	MMPipeline PipelineSpec

	// PolicySeed seeds the deterministic generators of the learned
	// pipeline stages (internal/mm "reuse-dist", "bandit-ts",
	// "bandit-pf"). Runs with equal seeds are byte-identical; zero is a
	// valid seed (remapped internally to a fixed constant). The built-in
	// static stages ignore it.
	PolicySeed uint64
	// BanditEpsilonPct is the exploration probability, in percent
	// [0, 100], of the bandit-driven stages. Zero disables exploration
	// entirely, collapsing bandit-ts to the static threshold planner it
	// starts from (the epsilon=0 golden regression).
	BanditEpsilonPct uint64
	// BanditEpochCycles is the learning-epoch length in simulated core
	// cycles: bandit-ts re-evaluates its arm once per epoch. Epochs are
	// measured on simulated time only — never wall clock — so epoch
	// boundaries are part of the reproducible run state. Zero selects
	// the built-in default.
	BanditEpochCycles uint64

	// ClusterWorkers is the thread count a multi-GPU run
	// (internal/core) drains its node engines on: each GPU+driver node
	// has its own engine, and every kernel drains all of them up to the
	// barrier. 0 or 1 means one thread (the caller's); values
	// above the cluster size are clamped to it. Results are
	// byte-identical for every value. Single-GPU runs ignore it.
	ClusterWorkers int

	// CXL pooled tier (internal/cxl). Zero CXLPoolBytes disables the
	// pool entirely, keeping the classic two-tier topology — the
	// byte-identical default. The remaining fields then have no effect.
	CXLPoolBytes uint64 // pooled tier capacity; must be page aligned
	// CXLBytesPerCycle and CXLLatency describe each GPU's CXL port
	// (per-direction bandwidth in bytes per core cycle, one-way
	// initiation latency in core cycles). Zero selects the defaults
	// (half PCIe bandwidth headroom is NOT assumed: CXL.mem on x8 gen5
	// is comparable to PCIe but with far lower small-access overhead).
	CXLBytesPerCycle float64
	CXLLatency       uint64
	// CXLReadThreshold is the per-GPU read-counter threshold above
	// which the pool controller grants a read-only replica (and the
	// margin a sole writer must clear to win a writable migration).
	// Zero selects the default.
	CXLReadThreshold uint64
	// PoolPolicy selects the pool-management stage by its internal/mm
	// name ("cxl-repl" counter-arbitrated replication,
	// "cxl-migrate" naive migrate-on-touch, "pool-remote" never
	// migrate). Empty selects the default (cxl-repl).
	PoolPolicy string
}

// CXLEnabled reports whether the configuration carries a pooled tier.
func (c Config) CXLEnabled() bool { return c.CXLPoolBytes > 0 }

// CXL port defaults applied when the pool is enabled and a field is
// zero: bandwidth comparable to the PCIe link but with a lower
// initiation latency (load/store-native CXL.mem), and the paper's
// static threshold spirit for the replication agreement.
const (
	DefaultCXLBytesPerCycle = 10.6
	DefaultCXLLatency       = 60
	DefaultCXLReadThreshold = 4
)

// CXLPortBytesPerCycle returns the effective CXL port bandwidth.
func (c Config) CXLPortBytesPerCycle() float64 {
	if c.CXLBytesPerCycle > 0 {
		return c.CXLBytesPerCycle
	}
	return DefaultCXLBytesPerCycle
}

// CXLPortLatency returns the effective CXL port latency in core cycles.
func (c Config) CXLPortLatency() uint64 {
	if c.CXLLatency > 0 {
		return c.CXLLatency
	}
	return DefaultCXLLatency
}

// CXLThreshold returns the effective replication threshold.
func (c Config) CXLThreshold() uint64 {
	if c.CXLReadThreshold > 0 {
		return c.CXLReadThreshold
	}
	return DefaultCXLReadThreshold
}

// Default returns the boldface configuration of Table I: a Pascal-like
// GTX 1080 Ti with tree prefetcher, 2MB LRU eviction, ts=8 and p=2,
// first-touch migration policy and 12GB of device memory.
func Default() Config {
	return Config{
		NumSMs:        28,
		CoresPerSM:    128,
		CoreClockMHz:  1481,
		MaxCTAsPerSM:  32,
		MaxWarpsPerSM: 64,
		WarpSize:      32,

		PageWalkLatency: 100,
		TLBEntries:      512,
		DRAMLatency:     100,
		DeviceMemBytes:  12 << 30,

		PCIeLatency:       100,
		PCIeBytesPerCycle: 10.6, // ~15.75 GB/s effective at 1481 MHz
		PCIeHeaderBytes:   24,
		RemoteWirePenalty: 3,

		RemoteAccessLatency: 200,

		FarFaultLatencyMicros: 45,
		EvictionGranularity:   memunits.ChunkSize,
		Replacement:           ReplaceLRU,
		Prefetcher:            PrefetchTree,
		EvictionRecencyGuard:  200_000,

		Policy:          PolicyDisabled,
		StaticThreshold: 8,
		Penalty:         2,
		WriteMigrates:   true,

		PolicySeed:        1,
		BanditEpsilonPct:  10,
		BanditEpochCycles: 2_000_000,
	}
}

// FarFaultLatencyCycles converts the microsecond fault handling latency to
// core cycles at the configured clock.
func (c Config) FarFaultLatencyCycles() uint64 {
	return c.FarFaultLatencyMicros * c.CoreClockMHz
}

// WithPolicy returns a copy configured for the given migration policy,
// applying the paper's pairing of replacement policies (§VI): LRU for the
// Disabled baseline, the counter-driven LFU for the other three schemes,
// and disabling immediate write migration under Adaptive.
func (c Config) WithPolicy(p MigrationPolicy) Config {
	c.Policy = p
	if p == PolicyDisabled {
		c.Replacement = ReplaceLRU
	} else {
		c.Replacement = ReplaceLFU
	}
	c.WriteMigrates = p != PolicyAdaptive
	return c
}

// WithOversubscription sizes device memory so that a working set of
// wsBytes occupies the given percentage of it. percent=125 reproduces the
// paper's "125% oversubscription": capacity = wsBytes/1.25. percent<=100
// means the working set fits (capacity rounds up); above 100 the capacity
// rounds *down* to a whole number of eviction-granularity units so that
// rounding can never erase the oversubscription pressure. At least two
// units of capacity are always provided.
func (c Config) WithOversubscription(wsBytes uint64, percent uint64) Config {
	if percent == 0 {
		panic("config: oversubscription percent must be positive")
	}
	capBytes := wsBytes * 100 / percent
	gran := c.EvictionGranularity
	if gran == 0 {
		gran = memunits.ChunkSize
	}
	if percent > 100 {
		capBytes = capBytes / gran * gran
	} else {
		capBytes = memunits.RoundUp(capBytes, gran)
	}
	if capBytes < 2*gran {
		capBytes = 2 * gran
	}
	c.DeviceMemBytes = capBytes
	return c
}

// Link bounds. At minLinkBytesPerCycle a 2MB transfer occupies the wire
// for 2^31 cycles; anything slower (or NaN) would overflow the float to
// cycle conversion of a link's occupancy. maxRemoteWirePenalty keeps a
// zero-copy transaction's wire bytes, (payload + header) * penalty, far
// below that conversion's range.
const (
	minLinkBytesPerCycle = 1.0 / 1024
	maxRemoteWirePenalty = 1024
)

// linkBandwidthOK reports whether bw is a finite link bandwidth of at
// least minLinkBytesPerCycle; NaN fails the comparison.
func linkBandwidthOK(bw float64) bool {
	return bw >= minLinkBytesPerCycle && !math.IsInf(bw, 1)
}

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.CoreClockMHz == 0:
		return errors.New("config: CoreClockMHz must be positive")
	case c.MaxWarpsPerSM <= 0:
		return errors.New("config: MaxWarpsPerSM must be positive")
	case c.MaxCTAsPerSM <= 0:
		return errors.New("config: MaxCTAsPerSM must be positive")
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("config: WarpSize %d out of range (1..32)", c.WarpSize)
	case c.DeviceMemBytes < memunits.ChunkSize:
		return fmt.Errorf("config: DeviceMemBytes %d smaller than one 2MB chunk", c.DeviceMemBytes)
	case c.DeviceMemBytes%memunits.PageSize != 0:
		return errors.New("config: DeviceMemBytes must be page aligned")
	case c.TLBEntries < 0:
		return errors.New("config: TLBEntries must be non-negative")
	case !linkBandwidthOK(c.PCIeBytesPerCycle):
		return fmt.Errorf("config: PCIeBytesPerCycle %v must be finite and at least %v", c.PCIeBytesPerCycle, minLinkBytesPerCycle)
	case !(c.RemoteWirePenalty >= 1 && c.RemoteWirePenalty <= maxRemoteWirePenalty):
		return fmt.Errorf("config: RemoteWirePenalty %v must be in [1, %d]", c.RemoteWirePenalty, maxRemoteWirePenalty)
	case c.StaticThreshold == 0:
		return errors.New("config: StaticThreshold must be at least 1")
	case c.Penalty == 0:
		return errors.New("config: Penalty must be at least 1")
	case c.ClusterWorkers < 0:
		return errors.New("config: ClusterWorkers must be non-negative")
	case c.BanditEpsilonPct > 100:
		return fmt.Errorf("config: BanditEpsilonPct %d above 100", c.BanditEpsilonPct)
	case c.CXLPoolBytes%memunits.PageSize != 0:
		return errors.New("config: CXLPoolBytes must be page aligned")
	case c.CXLBytesPerCycle != 0 && !linkBandwidthOK(c.CXLBytesPerCycle):
		return fmt.Errorf("config: CXLBytesPerCycle %v must be 0 (the default) or finite and at least %v", c.CXLBytesPerCycle, minLinkBytesPerCycle)
	case !c.CXLEnabled() && c.PoolPolicy != "":
		return fmt.Errorf("config: PoolPolicy %q set without a CXL pool (CXLPoolBytes=0)", c.PoolPolicy)
	}
	if c.EvictionGranularity != memunits.ChunkSize && c.EvictionGranularity != memunits.BlockSize {
		return fmt.Errorf("config: EvictionGranularity %d must be 2MB or 64KB", c.EvictionGranularity)
	}
	switch c.Policy {
	case PolicyDisabled, PolicyAlways, PolicyOversub, PolicyAdaptive:
	default:
		return fmt.Errorf("config: unknown migration policy %d", int(c.Policy))
	}
	switch c.Replacement {
	case ReplaceLRU, ReplaceLFU:
	default:
		return fmt.Errorf("config: unknown replacement policy %d", int(c.Replacement))
	}
	switch c.Prefetcher {
	case PrefetchTree, PrefetchNone, PrefetchSequential:
	default:
		return fmt.Errorf("config: unknown prefetcher %d", int(c.Prefetcher))
	}
	return nil
}

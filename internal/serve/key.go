package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"uvmsim/internal/config"
)

// KeyVersion identifies the cache-key derivation. Bump it whenever the
// canonical document below changes meaning — adding a Config field that
// affects results, changing the workload generators, or changing the
// simulator in any behaviour-visible way — so stale entries can never
// be returned for a semantically different cell.
const KeyVersion = 1

// keyDoc is the canonical document whose SHA-256 is the cell's
// content address. It is serialized with encoding/json, which emits
// struct fields in declaration order with deterministic number
// formatting, so equal cells always hash equally.
//
// The hashed Config is the *derived* per-cell configuration — after
// WithPolicy's replacement pairing and WithOversubscription's
// device-memory sizing — so two submissions that spell the same cell
// differently (say, different base DeviceMemBytes that derivation
// overwrites) share one entry. PipelineSpec and PolicySeed ride inside
// Config, covering the (Config, PipelineSpec, workload name+scale,
// seed) identity the cache is specified over.
// OversubPercent is hashed even though it only reaches Config through
// the derived DeviceMemBytes: at tiny scales distinct percents can
// derive identical capacities (the two-unit floor), but the percent is
// recorded verbatim in the cell's result record, so cells differing
// only in percent must not share an entry.
type keyDoc struct {
	KeyVersion     int
	Workload       string
	Scale          float64
	OversubPercent uint64
	Config         config.Config
}

// coloKeyDoc is the canonical key document for a co-location cell. The
// hashed Config is the resolved per-cell configuration (pool size and
// policy applied), and the tenant mix is the canonical
// "workload:gpu:priority" spelling, so equivalent submissions (elided
// default priority, unresolved default policy) share one entry. Epochs
// and Seed are hashed verbatim: zero deterministically selects the
// scenario defaults, so distinct spellings of the same run at worst
// split the cache, never corrupt it.
type coloKeyDoc struct {
	KeyVersion int
	GPUs       int
	Tenants    []string
	Epochs     int
	Seed       uint64
	Config     config.Config
}

// ColoKey returns the canonical content address for one co-location
// cell.
func ColoKey(gpus int, tenants []string, epochs int, seed uint64, derived config.Config) string {
	// Worker count never changes a co-location result (the scenarios are
	// byte-identical under the PDES coordinator at any worker count), so
	// it must not split the key space.
	derived.ClusterWorkers = 0
	return hashKey(coloKeyDoc{
		KeyVersion: KeyVersion,
		GPUs:       gpus,
		Tenants:    tenants,
		Epochs:     epochs,
		Seed:       seed,
		Config:     derived,
	})
}

// CellKey returns the canonical content address for one cell.
func CellKey(workload string, scale float64, oversubPercent uint64, derived config.Config) string {
	// ClusterWorkers selects PDES worker counts for multi-GPU runs and
	// is ignored by the single-GPU cells the service executes; results
	// are identical for every value, so it must not split the key space.
	derived.ClusterWorkers = 0
	return hashKey(keyDoc{
		KeyVersion:     KeyVersion,
		Workload:       workload,
		Scale:          scale,
		OversubPercent: oversubPercent,
		Config:         derived,
	})
}

// hashKey returns the hex-encoded SHA-256 of a canonical key document's
// JSON encoding.
func hashKey(doc any) string {
	b, err := json.Marshal(doc)
	if err != nil {
		// The key documents hold plain value structs; Marshal cannot fail.
		panic(fmt.Sprintf("serve: canonical key encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

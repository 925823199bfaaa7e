package resultio

import (
	"encoding/json"
	"fmt"
	"io"

	"uvmsim/internal/cxl"
)

// CXLFormatVersion identifies the co-location cache-entry schema (the
// bytes of every simd colo payload); bump on incompatible changes.
const CXLFormatVersion = 1

// CXLScenario is one archived co-location run: a tenant mix executed
// under one pool policy, with the scenario's deterministic result
// (cycles, controller counters, per-tenant accounting and the
// reproducibility checksum) attached verbatim.
type CXLScenario struct {
	// Name labels the run inside its job (conventionally the pool
	// policy, since a colo job runs one tenant mix under several
	// policies).
	Name   string `json:"name"`
	Policy string `json:"policy"`
	GPUs   int    `json:"gpus"`
	// Tenants is the co-scheduled mix in ParseTenants syntax
	// ("workload:gpu:priority"), one entry per tenant.
	Tenants []string   `json:"tenants"`
	Seed    uint64     `json:"seed"`
	Result  cxl.Result `json:"result"`
}

// validateCXLScenario applies the per-scenario rules of a cache entry.
func validateCXLScenario(sc *CXLScenario) error {
	if sc.Policy == "" || sc.GPUs <= 0 || len(sc.Tenants) == 0 {
		return fmt.Errorf("resultio: cxl scenario %q missing policy/gpus/tenants", sc.Name)
	}
	if sc.Result.SimCycles == 0 {
		return fmt.Errorf("resultio: cxl scenario %q has no simulated cycles", sc.Name)
	}
	if len(sc.Result.Tenants) != len(sc.Tenants) {
		return fmt.Errorf("resultio: cxl scenario %q: %d tenant results for %d tenants",
			sc.Name, len(sc.Result.Tenants), len(sc.Tenants))
	}
	return nil
}

// CXLEntry is one archived co-location run in the content-addressed
// result cache: the scenario (policy, tenant mix, seed and its
// deterministic result) under the cell's canonical key. It is the
// co-location counterpart of CellEntry, produced when a simd job's
// colo cells run.
type CXLEntry struct {
	Version int `json:"version"`
	// Key is the hex SHA-256 content address (serve.ColoKey).
	Key      string      `json:"key"`
	Scenario CXLScenario `json:"scenario"`
}

// WriteCXLEntry emits the entry as indented JSON without mutating the
// caller's struct (an unset Version is defaulted on a copy). The
// encoding is deterministic, so equal entries produce byte-identical
// payloads — the property the content-addressed cache relies on.
func WriteCXLEntry(w io.Writer, e *CXLEntry) error {
	cp := *e
	if cp.Version == 0 {
		cp.Version = CXLFormatVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&cp)
}

// ReadCXLEntry parses and validates one co-location cache entry.
// Trailing bytes after the document are rejected.
func ReadCXLEntry(r io.Reader) (*CXLEntry, error) {
	var e CXLEntry
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("resultio: %w", err)
	}
	if err := requireEOF(dec); err != nil {
		return nil, err
	}
	if e.Version != CXLFormatVersion {
		return nil, fmt.Errorf("resultio: unsupported cxl entry version %d (want %d)", e.Version, CXLFormatVersion)
	}
	if e.Key == "" {
		return nil, fmt.Errorf("resultio: cxl entry missing key")
	}
	if e.Scenario.Name == "" {
		return nil, fmt.Errorf("resultio: cxl entry scenario missing name")
	}
	if err := validateCXLScenario(&e.Scenario); err != nil {
		return nil, err
	}
	return &e, nil
}

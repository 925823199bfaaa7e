package resultio

import (
	"fmt"
	"io"
)

// CellFormatVersion identifies the content-addressed cache-entry
// schema; bump on incompatible changes. The sweep service's cache key
// derivation carries its own version (serve.KeyVersion) — this one
// covers only the stored payload.
const CellFormatVersion = 1

// CellEntry is one archived sweep cell in the content-addressed result
// cache of the sweep service (internal/serve): the full self-describing
// record of the run plus the canonical key it is stored under. Entries
// are written once and never rewritten — every simulation is
// deterministic, so a key's payload is immutable — which makes the
// strict read path below (exact version, required key, EOF after the
// document) the cache's integrity check.
type CellEntry struct {
	Version int `json:"version"`
	// Key is the canonical content hash of (workload name+scale, derived
	// Config including PipelineSpec and PolicySeed) the entry is stored
	// under.
	Key    string `json:"key"`
	Record Record `json:"record"`
}

// WriteCellEntry emits the entry as indented JSON without mutating the
// caller's struct: unset versions (entry and embedded record) are
// defaulted on a copy, mirroring the other resultio writers.
func WriteCellEntry(w io.Writer, e *CellEntry) error {
	cp := *e
	if cp.Version == 0 {
		cp.Version = CellFormatVersion
	}
	if cp.Record.Version == 0 {
		cp.Record.Version = FormatVersion
	}
	return writeIndented(w, &cp)
}

// Validate applies the entry rules a reader enforces after decoding
// (the serve client, for every cell of a job payload): the exact entry
// version, a key, and a valid record.
func (e *CellEntry) Validate() error {
	if e.Version != CellFormatVersion {
		return fmt.Errorf("resultio: unsupported cell entry version %d (want %d)", e.Version, CellFormatVersion)
	}
	if e.Key == "" {
		return fmt.Errorf("resultio: cell entry missing key")
	}
	return validateRecord(&e.Record)
}

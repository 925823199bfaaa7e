// Package cliutil provides the flag-value parsing shared by the
// command-line tools: policy, replacement, prefetcher, eviction
// granularity and architecture preset names.
package cliutil

import (
	"fmt"
	"math"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

// ParsePolicy maps a user-facing policy name to the enum. "baseline" is
// accepted as an alias for "disabled".
func ParsePolicy(s string) (config.MigrationPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "disabled", "baseline":
		return config.PolicyDisabled, nil
	case "always":
		return config.PolicyAlways, nil
	case "oversub":
		return config.PolicyOversub, nil
	case "adaptive":
		return config.PolicyAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want disabled, always, oversub, adaptive)", s)
	}
}

// ParseReplacement maps a replacement-policy name; empty means "use the
// paper pairing for the chosen migration policy" and returns ok=false.
func ParseReplacement(s string) (config.ReplacementPolicy, bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return 0, false, nil
	case "lru":
		return config.ReplaceLRU, true, nil
	case "lfu":
		return config.ReplaceLFU, true, nil
	default:
		return 0, false, fmt.Errorf("unknown replacement policy %q (want lru, lfu)", s)
	}
}

// ParsePrefetcher maps a prefetcher name.
func ParsePrefetcher(s string) (config.PrefetcherKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tree":
		return config.PrefetchTree, nil
	case "none":
		return config.PrefetchNone, nil
	case "sequential", "seq":
		return config.PrefetchSequential, nil
	default:
		return 0, fmt.Errorf("unknown prefetcher %q (want tree, none, sequential)", s)
	}
}

// ParseGranularity maps an eviction-granularity name.
func ParseGranularity(s string) (uint64, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "2m", "2mb":
		return memunits.ChunkSize, nil
	case "64k", "64kb":
		return memunits.BlockSize, nil
	default:
		return 0, fmt.Errorf("unknown eviction granularity %q (want 2m, 64k)", s)
	}
}

// ParseComponentName validates a registry-backed pipeline component
// name (see internal/mm) against the registered set. Empty means "use
// the configuration default" and passes through unchanged; non-empty
// names are case-insensitive and must be registered. kind names the
// flag in the error message.
func ParseComponentName(kind, s string, registered []string) (string, error) {
	if s == "" {
		return "", nil
	}
	v := strings.ToLower(strings.TrimSpace(s))
	for _, n := range registered {
		if v == n {
			return v, nil
		}
	}
	return "", fmt.Errorf("unknown %s %q (have %s)", kind, s, strings.Join(registered, ", "))
}

// CheckScale validates a -scale workload factor: it must be positive
// and finite. NaN and +Inf pass a plain `<= 0` check but build a
// degenerate workload that simulates without error.
func CheckScale(v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-scale must be positive and finite, got %v", v)
	}
	return nil
}

// SplitList splits a comma-separated list, trimming blanks and dropping
// empty entries.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

package config

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Architecture presets. Default() models the paper's GTX 1080 Ti
// (Pascal-like); VoltaLike scales the compute side up to a V100-class
// part — the generation that actually shipped the hardware access
// counters the paper builds on — with a faster interconnect and a larger
// TLB. The memory-system policies are identical: the paper's framework
// is deliberately architecture-agnostic.

// presets maps preset names to constructors.
var presets = map[string]func() Config{
	"pascal": Default,
	"volta":  VoltaLike,
}

// VoltaLike returns a V100-class configuration: 80 SMs at 1530 MHz,
// 16GB of device memory, a ~1.5x faster host interconnect (NVLink-ish
// effective bandwidth expressed in bytes per core cycle) and a larger
// GMMU TLB.
func VoltaLike() Config {
	c := Default()
	c.NumSMs = 80
	c.CoresPerSM = 64
	c.CoreClockMHz = 1530
	c.DeviceMemBytes = 16 << 30
	c.PCIeBytesPerCycle = 16.0
	c.TLBEntries = 1024
	return c
}

// Preset returns the named architecture configuration.
func Preset(name string) (Config, error) {
	f, ok := presets[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Config{}, fmt.Errorf("config: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
	return f(), nil
}

// PresetNames lists the available presets in sorted order.
func PresetNames() []string { return slices.Sorted(maps.Keys(presets)) }

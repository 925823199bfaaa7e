package config

import (
	"math"
	"strings"
	"testing"

	"uvmsim/internal/memunits"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.NumSMs != 28 || c.CoresPerSM != 128 || c.CoreClockMHz != 1481 {
		t.Errorf("GPU architecture mismatch: %+v", c)
	}
	if c.MaxCTAsPerSM != 32 || c.MaxWarpsPerSM != 64 || c.WarpSize != 32 {
		t.Errorf("shader core config mismatch: %+v", c)
	}
	if c.PageWalkLatency != 100 || c.DRAMLatency != 100 {
		t.Errorf("memory latency mismatch: %+v", c)
	}
	if c.RemoteAccessLatency != 200 {
		t.Errorf("RemoteAccessLatency = %d, want 200", c.RemoteAccessLatency)
	}
	if c.FarFaultLatencyMicros != 45 {
		t.Errorf("FarFaultLatencyMicros = %d, want 45", c.FarFaultLatencyMicros)
	}
	if c.EvictionGranularity != memunits.ChunkSize {
		t.Errorf("EvictionGranularity = %d, want 2MB", c.EvictionGranularity)
	}
	if c.Replacement != ReplaceLRU || c.Prefetcher != PrefetchTree {
		t.Errorf("policy defaults mismatch: %+v", c)
	}
	if c.StaticThreshold != 8 {
		t.Errorf("StaticThreshold = %d, want 8", c.StaticThreshold)
	}
}

func TestFarFaultLatencyCycles(t *testing.T) {
	c := Default()
	// 45us at 1481 MHz = 45 * 1481 = 66645 cycles.
	if got := c.FarFaultLatencyCycles(); got != 66645 {
		t.Fatalf("FarFaultLatencyCycles = %d, want 66645", got)
	}
}

func TestWithPolicyPairsReplacement(t *testing.T) {
	base := Default()
	if got := base.WithPolicy(PolicyDisabled); got.Replacement != ReplaceLRU || !got.WriteMigrates {
		t.Errorf("Disabled pairing wrong: %+v", got)
	}
	for _, p := range []MigrationPolicy{PolicyAlways, PolicyOversub} {
		got := base.WithPolicy(p)
		if got.Replacement != ReplaceLFU || !got.WriteMigrates {
			t.Errorf("%v pairing wrong: %+v", p, got)
		}
	}
	got := base.WithPolicy(PolicyAdaptive)
	if got.Replacement != ReplaceLFU || got.WriteMigrates {
		t.Errorf("Adaptive pairing wrong: %+v", got)
	}
}

func TestWithOversubscription(t *testing.T) {
	c := Default()
	ws := uint64(40 << 20)
	o := c.WithOversubscription(ws, 125)
	// capacity = 40MB/1.25 = 32MB.
	if o.DeviceMemBytes != 32<<20 {
		t.Fatalf("125%% oversub capacity = %d, want 32MB", o.DeviceMemBytes)
	}
	o = c.WithOversubscription(ws, 100)
	if o.DeviceMemBytes != 40<<20 {
		t.Fatalf("100%% capacity = %d, want 40MB", o.DeviceMemBytes)
	}
	o = c.WithOversubscription(ws, 150)
	// 40MB/1.5 = 26.67MB -> rounds DOWN to 26MB at 2MB granularity so
	// that rounding never erases the oversubscription.
	if o.DeviceMemBytes != 26<<20 {
		t.Fatalf("150%% capacity = %d, want 26MB", o.DeviceMemBytes)
	}
	if o.DeviceMemBytes%memunits.ChunkSize != 0 {
		t.Fatal("capacity not chunk aligned")
	}
}

func TestWithOversubscriptionNeverErased(t *testing.T) {
	// A working set barely above capacity must still end up
	// oversubscribed after rounding (regression: round-up used to hand
	// back the full working set).
	c := Default()
	ws := uint64(8<<20 + 400<<10)
	o := c.WithOversubscription(ws, 125)
	if o.DeviceMemBytes >= ws {
		t.Fatalf("capacity %d >= working set %d; oversubscription erased", o.DeviceMemBytes, ws)
	}
}

func TestWithOversubscriptionMinimum(t *testing.T) {
	c := Default()
	o := c.WithOversubscription(64<<10, 1000)
	if o.DeviceMemBytes < 2*memunits.ChunkSize {
		t.Fatalf("capacity %d below the two-chunk floor", o.DeviceMemBytes)
	}
}

func TestValidateErrors(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := Default()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		c    Config
		frag string
	}{
		{"sms", mod(func(c *Config) { c.NumSMs = 0 }), "NumSMs"},
		{"clock", mod(func(c *Config) { c.CoreClockMHz = 0 }), "CoreClockMHz"},
		{"warps", mod(func(c *Config) { c.MaxWarpsPerSM = 0 }), "MaxWarpsPerSM"},
		{"warpsize", mod(func(c *Config) { c.WarpSize = 64 }), "WarpSize"},
		{"mem", mod(func(c *Config) { c.DeviceMemBytes = 4096 }), "DeviceMemBytes"},
		{"bw", mod(func(c *Config) { c.PCIeBytesPerCycle = 0 }), "PCIeBytesPerCycle"},
		{"bwNaN", mod(func(c *Config) { c.PCIeBytesPerCycle = math.NaN() }), "PCIeBytesPerCycle"},
		{"bwInf", mod(func(c *Config) { c.PCIeBytesPerCycle = math.Inf(1) }), "PCIeBytesPerCycle"},
		{"bwTiny", mod(func(c *Config) { c.PCIeBytesPerCycle = 1e-300 }), "PCIeBytesPerCycle"},
		{"wireLow", mod(func(c *Config) { c.RemoteWirePenalty = 0.5 }), "RemoteWirePenalty"},
		{"wireNaN", mod(func(c *Config) { c.RemoteWirePenalty = math.NaN() }), "RemoteWirePenalty"},
		{"wireInf", mod(func(c *Config) { c.RemoteWirePenalty = math.Inf(1) }), "RemoteWirePenalty"},
		{"wireHuge", mod(func(c *Config) { c.RemoteWirePenalty = 1e300 }), "RemoteWirePenalty"},
		{"cxlbwNeg", mod(func(c *Config) { c.CXLBytesPerCycle = -1 }), "CXLBytesPerCycle"},
		{"cxlbwNaN", mod(func(c *Config) { c.CXLBytesPerCycle = math.NaN() }), "CXLBytesPerCycle"},
		{"cxlbwInf", mod(func(c *Config) { c.CXLBytesPerCycle = math.Inf(1) }), "CXLBytesPerCycle"},
		{"cxlbwTiny", mod(func(c *Config) { c.CXLBytesPerCycle = 1e-300 }), "CXLBytesPerCycle"},
		{"ts", mod(func(c *Config) { c.StaticThreshold = 0 }), "StaticThreshold"},
		{"p", mod(func(c *Config) { c.Penalty = 0 }), "Penalty"},
		{"gran", mod(func(c *Config) { c.EvictionGranularity = 4096 }), "EvictionGranularity"},
		{"policy", mod(func(c *Config) { c.Policy = MigrationPolicy(99) }), "policy"},
		{"replace", mod(func(c *Config) { c.Replacement = ReplacementPolicy(9) }), "replacement"},
		{"prefetch", mod(func(c *Config) { c.Prefetcher = PrefetcherKind(9) }), "prefetcher"},
		{"cxlpool", mod(func(c *Config) { c.CXLPoolBytes = 4097 }), "CXLPoolBytes"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid config")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tt.frag)) {
				t.Fatalf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[MigrationPolicy]string{
		PolicyDisabled: "Disabled",
		PolicyAlways:   "Always",
		PolicyOversub:  "Oversub",
		PolicyAdaptive: "Adaptive",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if len(Policies()) != 4 {
		t.Errorf("Policies() returned %d entries, want 4", len(Policies()))
	}
	if ReplaceLRU.String() != "LRU" || ReplaceLFU.String() != "LFU" {
		t.Error("replacement policy names wrong")
	}
	if PrefetchTree.String() != "Tree" || PrefetchNone.String() != "None" || PrefetchSequential.String() != "Sequential" {
		t.Error("prefetcher names wrong")
	}
}

package stats

import (
	"strings"
	"testing"
)

func valid() Counters {
	return Counters{
		Cycles:           1000,
		NearAccesses:     500,
		RemoteReads:      10,
		RemoteWrites:     5,
		FarFaults:        20,
		FaultBatches:     4,
		MigratedPages:    320,
		PrefetchedPages:  160,
		ThrashedPages:    32,
		EvictedPages:     64,
		WrittenBackPages: 16,
		Instructions:     100,
		MemInstructions:  60,
	}
}

func TestDerived(t *testing.T) {
	c := valid()
	if c.RemoteAccesses() != 15 {
		t.Fatalf("RemoteAccesses = %d", c.RemoteAccesses())
	}
}

func TestValidateAcceptsValid(t *testing.T) {
	c := valid()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid counters rejected: %v", err)
	}
	var zero Counters
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero counters rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Counters)
		frag string
	}{
		{"prefetch>migrated", func(c *Counters) { c.PrefetchedPages = c.MigratedPages + 1 }, "prefetched"},
		{"thrash>migrated", func(c *Counters) { c.ThrashedPages = c.MigratedPages + 1 }, "thrashed"},
		{"wb>evicted", func(c *Counters) { c.WrittenBackPages = c.EvictedPages + 1 }, "written-back"},
		{"thrash-no-evict", func(c *Counters) { c.EvictedPages = 0; c.WrittenBackPages = 0 }, "thrashing"},
		{"faults-no-batch", func(c *Counters) { c.FaultBatches = 0 }, "batches"},
		{"batches>faults", func(c *Counters) { c.FaultBatches = c.FarFaults + 1 }, "batches"},
		{"mem>instr", func(c *Counters) { c.MemInstructions = c.Instructions + 1 }, "instructions"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c := valid()
			tt.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("invalid counters accepted")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Fatalf("error %q missing %q", err, tt.frag)
			}
		})
	}
}

func TestString(t *testing.T) {
	c := valid()
	s := c.String()
	for _, frag := range []string{"cycles=1000", "near=500", "remote=15", "migrated=320", "thrash 32", "h2d="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String missing %q: %s", frag, s)
		}
	}
}

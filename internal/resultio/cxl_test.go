package resultio

import (
	"bytes"
	"strings"
	"testing"

	"uvmsim/internal/cxl"
)

// sampleCXLEntry is a valid colo cache entry: one scenario of a
// two-tenant mix with its deterministic result.
func sampleCXLEntry() *CXLEntry {
	res := cxl.Result{
		SimCycles: 1234, Checksum: 99, Fairness: 0.8, Replications: 3,
		Tenants: []cxl.TenantResult{
			{Workload: "bfs", GPU: 0, Accesses: 100},
			{Workload: "sssp", GPU: 0, Accesses: 90},
		},
	}
	return &CXLEntry{Key: "deadbeef", Scenario: CXLScenario{
		Name: "cxl-repl", Policy: "cxl-repl", GPUs: 2,
		Tenants: []string{"bfs:0:1", "sssp:0:0"}, Seed: 7, Result: res,
	}}
}

func TestCXLEntryRoundTrip(t *testing.T) {
	e := sampleCXLEntry()
	var buf bytes.Buffer
	if err := WriteCXLEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	if e.Version != 0 {
		t.Fatal("WriteCXLEntry mutated its input")
	}
	got := new(CXLEntry)
	if err := decodeValid(&buf, got); err != nil {
		t.Fatal(err)
	}
	if got.Version != CXLFormatVersion || got.Key != "deadbeef" {
		t.Fatalf("round-trip = %+v", got)
	}
	if got.Scenario.Result.Checksum != 99 || len(got.Scenario.Tenants) != 2 {
		t.Fatalf("scenario = %+v", got.Scenario)
	}
}

func TestCXLEntryWriteDeterministic(t *testing.T) {
	e := sampleCXLEntry()
	var a, b bytes.Buffer
	if err := WriteCXLEntry(&a, e); err != nil {
		t.Fatal(err)
	}
	if err := WriteCXLEntry(&b, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of one entry differ")
	}
}

func TestCXLEntryRejects(t *testing.T) {
	cases := map[string]func(*CXLEntry){
		"missing key":     func(e *CXLEntry) { e.Key = "" },
		"missing name":    func(e *CXLEntry) { e.Scenario.Name = "" },
		"missing policy":  func(e *CXLEntry) { e.Scenario.Policy = "" },
		"zero gpus":       func(e *CXLEntry) { e.Scenario.GPUs = 0 },
		"no tenants":      func(e *CXLEntry) { e.Scenario.Tenants = nil },
		"zero cycles":     func(e *CXLEntry) { e.Scenario.Result.SimCycles = 0 },
		"tenant mismatch": func(e *CXLEntry) { e.Scenario.Result.Tenants = e.Scenario.Result.Tenants[:1] },
		"bad version":     func(e *CXLEntry) { e.Version = 99 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			e := sampleCXLEntry()
			mutate(e)
			var buf bytes.Buffer
			enc := *e
			if enc.Version == 0 {
				enc.Version = CXLFormatVersion
			}
			if err := WriteCXLEntry(&buf, &enc); err != nil {
				t.Fatal(err)
			}
			if err := decodeValid(&buf, &CXLEntry{}); err == nil {
				t.Fatal("mutated entry accepted")
			}
		})
	}
	t.Run("unknown field", func(t *testing.T) {
		if err := decodeValid(strings.NewReader(`{"version":1,"key":"k","scenario":{},"bogus":1}`), &CXLEntry{}); err == nil {
			t.Fatal("unknown field accepted")
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCXLEntry(&buf, sampleCXLEntry()); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("{}")
		if err := decodeValid(&buf, &CXLEntry{}); err == nil {
			t.Fatal("trailing data accepted")
		}
	})
}

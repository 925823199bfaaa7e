package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
)

// coloBase is a tiny but complete co-location invocation every test
// below perturbs.
var coloBase = []string{
	"-tenants", "bfs:0:1,ra:0:0", "-gpus", "1", "-cxl-pool-mb", "32",
	"-colo-epochs", "3", "-seed", "7",
}

// The co-location mode refuses a bad invocation at flag parse with exit
// code 2: a malformed tenant list, an out-of-range GPU, a flag the
// co-location run would ignore, and a co-location flag without
// -tenants.
func TestColocationFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"noPool", []string{"-tenants", "bfs:0"}, "-cxl-pool-mb"},
		{"badTenantSyntax", []string{"-tenants", "bfs", "-cxl-pool-mb", "32"}, "tenant"},
		{"unknownTenantWorkload", []string{"-tenants", "nope:0", "-cxl-pool-mb", "32"}, "unknown workload"},
		{"tenantGPUOutOfRange", []string{"-tenants", "bfs:3", "-gpus", "2", "-cxl-pool-mb", "32"}, "GPU"},
		{"unknownPoolPolicy", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-pool-policy", "nvlink"}, "unknown pool policy"},
		{"negativeCXLBandwidth", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-cxl-bw", "-1"}, "CXL"},
		{"negativeEpochs", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-colo-epochs", "-1"}, "-colo-epochs"},
		{"spansInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-spans"}, "co-location"},
		{"graphInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-graph", "g.txt"}, "co-location"},
		{"jsonInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-json", "r.json"}, "co-location"},
		{"traceOutInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-trace-out", "t.json"}, "co-location"},
		{"checkInvariantsInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-check-invariants", "100"}, "co-location"},
		{"traceSampleInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-trace-sample", "8"}, "co-location"},
		// Single-run configuration a co-location run would ignore.
		{"plannerInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-planner", "thrash-guard"}, "-planner applies to single-workload runs only"},
		{"policyInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-policy", "disabled"}, "-policy applies to single-workload runs only"},
		{"penaltyInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-p", "3"}, "-p applies to single-workload runs only"},
		{"scaleInColoMode", []string{"-tenants", "bfs:0", "-cxl-pool-mb", "32", "-scale", "0.5"}, "-scale applies to single-workload runs only"},
		{"cxlFlagWithoutTenants", []string{"-workload", "ra", "-cxl-pool-mb", "32"}, "-cxl-pool-mb applies to the co-location mode"},
		{"poolPolicyWithoutTenants", []string{"-workload", "ra", "-pool-policy", "cxl-repl"}, "-pool-policy applies to the co-location mode"},
		{"thresholdWithoutTenants", []string{"-workload", "ra", "-cxl-threshold", "8"}, "-cxl-threshold applies to the co-location mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr %q)", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want substring %q", stderr, tc.wantErr)
			}
		})
	}
}

// Every pool policy must be selectable by its advertised
// name — the same round-trip convention the pipeline registries follow.
func TestPoolPolicyNamesRoundTripThroughFlags(t *testing.T) {
	for _, n := range mm.PoolPolicyNames() {
		t.Run(n, func(t *testing.T) {
			args := append(append([]string{}, coloBase...), "-pool-policy", n)
			if code, _, stderr := runCLI(t, args...); code != 0 {
				t.Fatalf("run(%q) = %d, stderr %q", args, code, stderr)
			}
		})
	}
}

func TestColocationRunPrintsResultAndIsSeedStable(t *testing.T) {
	code, out1, stderr := runCLI(t, coloBase...)
	if code != 0 {
		t.Fatalf("colo run = %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"colo gpus=1 tenants=2", "cycles=", "checksum=", "fairness=", "tenant0 bfs", "tenant1 ra"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out1)
		}
	}
	if _, out2, _ := runCLI(t, coloBase...); out2 != out1 {
		t.Fatalf("repeat colo run diverged:\n%s\nvs\n%s", out1, out2)
	}
	csvArgs := append(append([]string{}, coloBase...), "-csv")
	if code, out, _ := runCLI(t, csvArgs...); code != 0 ||
		!strings.Contains(out, "tenant,workload,gpu,priority") {
		t.Fatalf("csv colo run = %d:\n%s", code, out)
	}
}

func TestColocationMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "colo-metrics.json")
	args := append(append([]string{}, coloBase...), "-metrics-json", path)
	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("colo metrics run = %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The same versioned document as every other run, with one run
	// named after the tenant mix.
	var doc obs.SuiteSnapshot
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != obs.MetricsFormatVersion {
		t.Fatalf("metrics version = %d", doc.Version)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Name != "colo/bfs:0:1,ra:0:0" {
		t.Fatalf("runs = %+v, want one named colo/bfs:0:1,ra:0:0", doc.Runs)
	}
	snap := doc.Runs[0]
	if snap.Counter("cxl.promotions")+snap.Counter("cxl.replications")+snap.Counter("cxl.evictions") == 0 {
		t.Fatalf("no controller activity in snapshot: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["cxl.fairness_jain"]; !ok {
		t.Fatal("fairness gauge missing from snapshot")
	}
}

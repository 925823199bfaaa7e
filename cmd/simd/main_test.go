package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/serve"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The smoke mode is the CI gate; it must pass end-to-end in-process.
func TestSmokeMode(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-smoke", "-workers", "2")
	if code != 0 {
		t.Fatalf("smoke exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "payload byte-identical") || !strings.Contains(stdout, "PASS") {
		t.Fatalf("smoke output missing assertions:\n%s", stdout)
	}
}

func TestPrintFigureJob(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "fig6", "-scale", "0.05", "-workloads", "bfs,ra", "-print-job")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(stdout), &req); err != nil {
		t.Fatalf("print-job output is not a job request: %v\n%s", err, stdout)
	}
	if req.Name != "fig6" || len(req.Workloads) != 2 || len(req.Policies) != 4 {
		t.Fatalf("unexpected fig6 job: %+v", req)
	}
	if req.Base == nil || req.Base.Penalty != 8 {
		t.Fatalf("fig6 job lost the p=8 operating point: %+v", req.Base)
	}
}

func TestPrintColoJob(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "colo", "-print-job")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(stdout), &req); err != nil {
		t.Fatalf("print-job output is not a job request: %v\n%s", err, stdout)
	}
	if req.Name != "colo" || len(req.Colo) != 3 {
		t.Fatalf("unexpected colo job: %+v", req)
	}
	if req.Colo[0].Tenants != "bfs:0:1,sssp:0:0,backprop:1:1" || req.Colo[0].PoolMB != 64 {
		t.Fatalf("colo job lost the canonical mix: %+v", req.Colo[0])
	}
}

func TestSubmitFilePrintJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, []byte(`{"workloads":["bfs"],"scale":0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-submit", path, "-print-job")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(stdout), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Workloads) != 1 || req.Scale != 0.05 {
		t.Fatalf("job file lost fields: %+v", req)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no mode
		{"-addr", "x", "-smoke"},       // two modes
		{"-fig", "fig2", "-print-job"}, // unmapped figure
		{"-fig", "x", "-submit", "y", "-print-job"}, // mutually exclusive
		{"-smoke", "extra"},                         // stray operand
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code == 0 {
			t.Errorf("args %q: exited 0", args)
		}
	}
}

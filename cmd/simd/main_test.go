package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
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
	// One explicit cell per (workload, policy), workload-major.
	if req.Name != "fig6" || len(req.Cells) != 8 || req.Cells[0].Workload != "bfs" || req.Cells[4].Workload != "ra" {
		t.Fatalf("unexpected fig6 job: %+v", req)
	}
	for _, c := range req.Cells {
		if c.Base != nil {
			t.Fatalf("fig6 cell %+v carries its own base; every column shares the job base", c)
		}
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

// A job file is exactly one strict job document, as for POST /v1/jobs:
// a second document, trailing data or an unknown field fails -submit
// before anything is printed or submitted.
func TestSubmitFileRejectsExtraData(t *testing.T) {
	const doc = `{"workloads":["bfs"],"scale":0.05}`
	for name, body := range map[string]string{
		"second document": doc + "\n" + doc,
		"trailing data":   doc + " garbage",
		"unknown field":   `{"workloads":["bfs"],"bogus":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "job.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCLI(t, "-submit", path, "-print-job")
			if code == 0 || stdout != "" {
				t.Fatalf("exited %d with output %q, want a failure and no job", code, stdout)
			}
			if !strings.Contains(stderr, "job.json") {
				t.Fatalf("stderr = %q, want the job file named", stderr)
			}
		})
	}
}

// A bad invocation is refused at flag parse: no mode or two modes, an
// unmapped figure, a stray operand or an unknown workload.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no mode
		{"-addr", "x", "-smoke"},       // two modes
		{"-fig", "fig2", "-print-job"}, // unmapped figure
		{"-fig", "x", "-submit", "y", "-print-job"},                  // mutually exclusive
		{"-smoke", "extra"},                                          // stray operand
		{"-fig", "fig6", "-workloads", "nosuch", "-print-job"},       // unknown workload
		{"-fig", "tournament", "-workloads", "nosuch", "-print-job"}, // unknown workload
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code == 0 {
			t.Errorf("args %q: exited 0", args)
		}
	}
}

// An interrupted server drains: the job it accepted before the
// interrupt completes before serveUntil returns, and a job submitted
// afterwards is refused.
func TestServeDrainsOnShutdown(t *testing.T) {
	s := serve.NewServer(serve.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, s, ln, io.Discard) }()

	c := &serve.Client{BaseURL: "http://" + ln.Addr().String()}
	job := serve.JobRequest{
		Name:            "drain",
		Scale:           0.05,
		Workloads:       []string{"bfs", "sssp"},
		OversubPercents: []uint64{125},
		Policies:        []string{"disabled", "adaptive"},
	}
	st, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-returned; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counter("serve.jobs.completed"); got != 1 {
		t.Fatalf("job %s: %d jobs completed when the server returned, want 1", st.ID, got)
	}
	if got := snap.Counter("serve.cells.completed"); got != uint64(st.TotalCells) {
		t.Fatalf("job %s: %d of %d cells completed when the server returned", st.ID, got, st.TotalCells)
	}
	if _, err := c.Submit(job); err == nil {
		t.Fatal("an HTTP submit after shutdown was accepted")
	}
}

// simd -addr serves until the process is interrupted, then drains and
// exits 0; a listen error exits 1.
func TestServeModeUntilInterrupt(t *testing.T) {
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		c := run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, io.Discard, pw)
		pw.Close()
		code <- c
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no listening line: %v", lines.Err())
	}
	url, ok := strings.CutPrefix(lines.Text(), "simd: listening on ")
	if !ok {
		t.Fatalf("first line %q, want the listening address", lines.Text())
	}
	if _, err := (&serve.Client{BaseURL: url}).CacheStats(); err != nil {
		t.Fatalf("server at %s does not answer: %v", url, err)
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if c := <-code; c != 0 {
		t.Fatalf("interrupted server exited %d: %q", c, rest)
	}
	if want := []string{"simd: draining: new jobs are refused", "simd: drained"}; !slices.Equal(rest, want) {
		t.Fatalf("after the interrupt the server wrote %q, want %q", rest, want)
	}

	if c, _, stderr := runCLI(t, "-addr", "127.0.0.1:99999"); c != 1 || !strings.Contains(stderr, "invalid port") {
		t.Fatalf("bad listen address: exit %d, stderr %q", c, stderr)
	}
}

// Command simd runs the sweep service: a long-running HTTP/JSON server
// that accepts simulation sweep jobs, shards their cells across a
// bounded worker pool, and memoizes every completed cell in a
// content-addressed result cache (see DESIGN.md §14).
//
// Server:
//
//	simd -addr 127.0.0.1:8642              # serve until interrupted
//	simd -addr 127.0.0.1:8642 -workers 4   # bound concurrent cells
//
// On SIGINT or SIGTERM the server refuses new jobs, waits up to
// drainTimeout for the running ones to finish, and exits.
//
// Client:
//
//	simd -server http://127.0.0.1:8642 -submit job.json   # submit a job file
//	simd -server http://127.0.0.1:8642 -fig fig6          # submit a figure sweep
//	simd -fig fig6 -print-job                             # print the job JSON, don't submit
//	simd -server ... -fig tournament -out result.json     # save the result payload
//	simd -server ... -fig colo                            # CXL co-location pool-policy sweep
//
// Smoke:
//
//	simd -smoke    # in-process end-to-end: submit, resubmit, assert the
//	               # resubmission is a pure cache hit with identical bytes
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uvmsim/internal/cliutil"
	"uvmsim/internal/experiments"
	"uvmsim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects the parsed flags so the tool body is testable
// without a process boundary.
type options struct {
	addr     string
	workers  int
	maxCells int

	server    string
	submit    string
	fig       string
	scale     float64
	workloads []string
	printJob  bool
	out       string

	smoke bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", "", "serve mode: listen address (e.g. 127.0.0.1:8642)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent simulation cells across all jobs (0 = one per core)")
	fs.IntVar(&o.maxCells, "max-cells", 0, "reject jobs expanding to more cells than this (0 = 4096)")
	fs.StringVar(&o.server, "server", "", "client mode: server base URL")
	fs.StringVar(&o.submit, "submit", "", "client mode: job request JSON file to submit ('-' = stdin)")
	fs.StringVar(&o.fig, "fig", "", "client mode: submit a figure sweep ("+
		fmt.Sprint(experiments.FigureNames())+", 'tournament' or 'colo')")
	fs.Float64Var(&o.scale, "scale", 1.0, "with -fig, workload scale factor (1.0 = paper size)")
	wl := fs.String("workloads", "", "with -fig, comma-separated workload subset (default: the figure's own)")
	fs.BoolVar(&o.printJob, "print-job", false, "with -fig or -submit, print the job request JSON and exit without submitting")
	fs.StringVar(&o.out, "out", "", "client mode: write the result payload to this file ('-' = stdout)")
	fs.BoolVar(&o.smoke, "smoke", false, "run the in-process end-to-end smoke test and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	var err error
	if o.workloads, err = cliutil.ParseWorkloads(*wl); err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 2
	}
	modes := 0
	for _, on := range []bool{o.addr != "", o.server != "" || o.printJob, o.smoke} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fs.Usage()
		return 2
	}
	switch {
	case o.smoke:
		err = runSmoke(o, stdout, stderr)
	case o.addr != "":
		err = runServe(o, stderr)
	default:
		err = runClient(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	}
	return 0
}

// drainTimeout bounds how long an interrupted server waits for its
// running jobs before it exits anyway.
const drainTimeout = 5 * time.Minute

// runServe listens on the configured address and serves until the
// process is interrupted, then drains. The interrupt handler is in
// place before the address is announced.
func runServe(o options, stderr io.Writer) error {
	s := serve.NewServer(serve.Options{Workers: o.workers, MaxCells: o.maxCells})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stderr, "simd: listening on http://%s\n", ln.Addr())
	return serveUntil(ctx, s, ln, stderr)
}

// serveUntil serves s on ln until ctx is done. Then s refuses new jobs
// while the API keeps answering, and once its running jobs have
// finished, or drainTimeout has passed, the HTTP server shuts down and
// serveUntil returns.
func serveUntil(ctx context.Context, s *serve.Server, ln net.Listener, stderr io.Writer) error {
	srv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "simd: draining: new jobs are refused")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drained := s.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close() //nolint:errcheck // the deadline passed; drop what is left
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drained != nil {
		return fmt.Errorf("running jobs did not finish within %v: %v", drainTimeout, drained)
	}
	fmt.Fprintln(stderr, "simd: drained")
	return nil
}

// buildJob resolves the client's job request from -submit or -fig.
func buildJob(o options) (serve.JobRequest, error) {
	switch {
	case o.submit != "" && o.fig != "":
		return serve.JobRequest{}, fmt.Errorf("-submit and -fig are mutually exclusive")
	case o.submit != "":
		var in io.Reader = os.Stdin
		if o.submit != "-" {
			f, err := os.Open(o.submit)
			if err != nil {
				return serve.JobRequest{}, err
			}
			defer f.Close()
			in = f
		}
		req, err := serve.ReadJobRequest(in)
		if err != nil {
			return serve.JobRequest{}, fmt.Errorf("%s: %v", o.submit, err)
		}
		return req, nil
	case o.fig != "":
		eo := experiments.Options{Scale: o.scale, Workloads: o.workloads}
		if o.fig == "tournament" {
			return experiments.TournamentJob(experiments.TournamentOptions{Options: eo}), nil
		}
		if o.fig == "colo" {
			// The canonical co-location mix under every pool policy;
			// -scale/-workloads do not apply to co-location cells.
			return experiments.ColoJob(experiments.ColoJobOptions{}), nil
		}
		return experiments.FigureJob(o.fig, eo)
	default:
		return serve.JobRequest{}, fmt.Errorf("client mode needs -submit or -fig")
	}
}

// runClient submits one job and follows it to completion, printing a
// progress line per update and a result summary.
func runClient(o options, stdout, stderr io.Writer) error {
	req, err := buildJob(o)
	if err != nil {
		return err
	}
	if o.printJob {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(req)
	}
	c := &serve.Client{BaseURL: o.server}
	st, payload, err := c.RunJob(req, func(u serve.JobStatus) {
		fmt.Fprintf(stderr, "simd: %s %s %d/%d cells (%d cached)\n",
			u.ID, u.State, u.DoneCells, u.TotalCells, u.CacheHits)
	})
	if err != nil {
		return err
	}
	doc, err := serve.DecodeResult(payload)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simd: job %s done: %d cells, %d from cache\n",
		st.ID, len(doc.Cells)+len(doc.Colo), st.CacheHits)
	if o.out == "" {
		return nil
	}
	if o.out == "-" {
		_, err = stdout.Write(payload)
		return err
	}
	if err := os.WriteFile(o.out, payload, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", o.out)
	return nil
}

// runSmoke is the CI serve-smoke gate: an in-process server on a
// loopback port, a small mixed job (bfs cells and one co-location cell)
// submitted twice, and hard assertions that the resubmission is a pure
// cache hit returning byte-identical payload, that the progress stream
// delivered updates, and that the metrics and cache endpoints agree
// with what happened, counting both kinds of cell.
func runSmoke(o options, stdout, stderr io.Writer) error {
	s := serve.NewServer(serve.Options{Workers: o.workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	//simlint:allow goroleak -- Serve returns once the deferred srv.Close below tears the listener down
	go srv.Serve(ln) //nolint:errcheck // shut down via Close below
	defer srv.Close()
	c := &serve.Client{BaseURL: "http://" + ln.Addr().String()}
	fmt.Fprintf(stderr, "serve-smoke: server on %s\n", c.BaseURL)

	job := serve.JobRequest{
		Name:            "smoke",
		Scale:           0.05,
		Workloads:       []string{"bfs"},
		OversubPercents: []uint64{125},
		Policies:        []string{"disabled", "adaptive"},
		Colo:            []serve.ColoSpec{{Tenants: "bfs:0:1,ra:0:0", GPUs: 1, PoolMB: 32, Epochs: 3, Seed: 7}},
	}
	var updates int
	st1, cold, err := c.RunJob(job, func(serve.JobStatus) { updates++ })
	if err != nil {
		return fmt.Errorf("cold job: %v", err)
	}
	if updates < 2 {
		return fmt.Errorf("progress stream delivered %d updates, want at least initial+terminal", updates)
	}
	if st1.CacheHits != 0 {
		return fmt.Errorf("cold job reported %d cache hits", st1.CacheHits)
	}
	doc, err := serve.DecodeResult(cold)
	if err != nil {
		return fmt.Errorf("cold payload: %v", err)
	}
	if len(doc.Cells) != 2 || len(doc.Colo) != 1 {
		return fmt.Errorf("cold payload: %d cells and %d colo cells, want 2 and 1", len(doc.Cells), len(doc.Colo))
	}
	fmt.Fprintf(stdout, "serve-smoke: cold job %s: %d cells and %d colo cell simulated\n",
		st1.ID, len(doc.Cells), len(doc.Colo))

	st2, warm, err := c.RunJob(job, nil)
	if err != nil {
		return fmt.Errorf("warm job: %v", err)
	}
	if st2.CacheHits != st2.TotalCells {
		return fmt.Errorf("warm job: %d/%d cache hits, want all", st2.CacheHits, st2.TotalCells)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("warm payload differs from cold payload (%d vs %d bytes)", len(cold), len(warm))
	}
	fmt.Fprintf(stdout, "serve-smoke: warm job %s: %d/%d cells from cache, payload byte-identical\n",
		st2.ID, st2.CacheHits, st2.TotalCells)

	cs, err := c.CacheStats()
	if err != nil {
		return err
	}
	if cs.Entries != st1.TotalCells || cs.Hits < uint64(st2.TotalCells) {
		return fmt.Errorf("cache stats inconsistent with run: %+v", cs)
	}
	snap, err := c.Metrics()
	if err != nil {
		return err
	}
	for _, check := range []struct {
		counter string
		want    uint64
	}{
		{"serve.jobs.completed", 2},
		{"serve.cells.simulated", uint64(len(doc.Cells) + len(doc.Colo))},
		{"serve.cells.cache_hits", uint64(st2.TotalCells)},
	} {
		if got := snap.Counter(check.counter); got != check.want {
			return fmt.Errorf("metrics: %s = %d, want %d", check.counter, got, check.want)
		}
	}
	fmt.Fprintf(stdout, "serve-smoke: PASS (%d entries, %d hits, metrics consistent)\n", cs.Entries, cs.Hits)
	return nil
}

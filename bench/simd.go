package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uvmsim"
	"uvmsim/internal/experiments"
	"uvmsim/internal/serve"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// simd drives an in-process sweep service the way the repository's
// service load test does (cmd/paperbench/serveload.go, which records
// BENCH_serve.json). A cold phase submits every distinct request once,
// one at a time, to an empty cache. A warm phase then resubmits every
// request from concurrent clients, so identical requests are in flight
// together, and every warm job is a cache hit. The request kinds are the
// load test's: Figures 1, 5 and 6 and a tournament of the threshold and
// thrash-guard planners. The load test sends them over one workload
// pair; here each paper workload gets its own set, so that there are
// enough cold jobs for the 95th percentile of job latency to fall among
// them. The canonical co-location sweep makes the last request.
//
// The mix leaves out one case: identical requests sent concurrently
// while they are still misses. The service does not merge identical
// cells in flight, so how often such cells are simulated twice would
// depend on timing, and the simulated work would differ from run to run.
type simd struct {
	p     params
	scale float64
	// warmRepeats is how often the warm phase sends each request. The
	// load test sends each job once per client, with 8 clients; 12
	// repeats make 33 x 13 = 429 jobs, so that at least 20 lie beyond the
	// 95th percentile.
	warmRepeats int
	reqs        []serve.JobRequest
	labels      []string
	// stream is the request index of every job, in submission order.
	stream []int
	srv    *simdServer
}

func newSimd(p params) runner {
	s := &simd{p: p, scale: 0.3, warmRepeats: 12}
	if p.smoke {
		s.scale, s.warmRepeats = 0.02, 2
	}
	return s
}

// simdFigures are the load test's figure jobs.
var simdFigures = []string{"fig1", "fig5", "fig6"}

// simdPlanners are the planners of the load test's tournament job.
var simdPlanners = []string{"threshold", "thrash-guard"}

// requests are the distinct requests and their labels: the load test's
// jobs for each paper workload alone, then the canonical CXL co-location
// sweep.
func (s *simd) requests() ([]serve.JobRequest, []string, error) {
	var reqs []serve.JobRequest
	var labels []string
	for _, w := range workloads.Names() {
		opts := uvmsim.ExperimentOptions{Scale: s.scale, Workloads: []string{w}}
		for _, fig := range simdFigures {
			req, err := experiments.FigureJob(fig, opts)
			if err != nil {
				return nil, nil, err
			}
			reqs = append(reqs, req)
			labels = append(labels, fig+"/"+w)
		}
		reqs = append(reqs, experiments.TournamentJob(uvmsim.TournamentOptions{Options: opts, Planners: simdPlanners}))
		labels = append(labels, "tournament/"+w)
	}
	return append(reqs, experiments.ColoJob(experiments.ColoJobOptions{})), append(labels, "colo"), nil
}

// makeStream is every one of n requests once, in order, then each of
// them repeats more times, shuffled by the seed.
func makeStream(seed uint64, n, repeats int) []int {
	var stream, warm []int
	for i := 0; i < n; i++ {
		stream = append(stream, i)
		for k := 0; k < repeats; k++ {
			warm = append(warm, i)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	return append(stream, warm...)
}

// setup builds the stream and starts a server, which is ready once it
// has served a probe job end to end: Figure 5 of bfs at a quarter of the
// scale, a request the stream does not make, which takes long enough
// (about 0.1 s) that a descheduled thread does not dominate it.
func (s *simd) setup() error {
	reqs, labels, err := s.requests()
	if err != nil {
		return err
	}
	s.reqs, s.labels = reqs, labels
	s.stream = makeStream(s.p.seed, len(reqs), s.warmRepeats)
	probe, err := experiments.FigureJob("fig5", uvmsim.ExperimentOptions{Scale: s.scale / 4, Workloads: []string{"bfs"}})
	if err != nil {
		return err
	}
	s.srv, err = startServer(s.p.nproc, probe)
	return err
}

func (s *simd) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
}

// jobOut is one finished job of the stream.
type jobOut struct {
	req     int
	ms      float64
	hit     bool
	digest  [sha256.Size]byte
	payload []byte
	err     error
}

// drive sends the stream and returns every job: the cold phase through
// one client, as the load test does, then the warm phase through nproc
// clients, each submitting its next job only after its previous one
// finished. Only the cold jobs keep their payloads.
func (s *simd) drive() []jobOut {
	outs := make([]jobOut, len(s.stream))
	cold := len(s.reqs)
	s.closedLoop(outs[:cold], s.stream[:cold], 1, true)
	s.closedLoop(outs[cold:], s.stream[cold:], s.p.nproc, false)
	return outs
}

// closedLoop runs jobs through the given number of clients and waits for
// all of them.
func (s *simd) closedLoop(outs []jobOut, jobs []int, clients int, keep bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &serve.Client{BaseURL: s.srv.url, HTTPClient: s.srv.client}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				start := time.Now()
				st, payload, err := client.RunJob(s.reqs[jobs[i]], nil)
				outs[i] = jobOut{
					req:    jobs[i],
					ms:     float64(time.Since(start)) / float64(time.Millisecond),
					hit:    err == nil && st.CacheHits == st.TotalCells,
					digest: sha256.Sum256(payload),
					err:    err,
				}
				if keep {
					outs[i].payload = payload
				}
			}
		}()
	}
	wg.Wait()
}

// record books the jobs and checks their payloads: every repeat of a
// request must return the bytes its first job returned, and the digest
// over the requests' payloads is the workload's checksum.
func (s *simd) record(outs []jobOut, r *passRec) (first []jobOut) {
	first = make([]jobOut, len(s.reqs))
	seen := make([]bool, len(s.reqs))
	for _, o := range outs {
		r.attempted++
		switch {
		case o.err != nil:
			r.fail("request %s: %v", s.labels[o.req], o.err)
		case !seen[o.req]:
			first[o.req], seen[o.req] = o, true
		case o.digest != first[o.req].digest:
			r.fail("request %s returned different bytes on a repeat", s.labels[o.req])
		}
	}
	h := sha256.New()
	for i, o := range first {
		if !seen[i] {
			r.fail("request %s never ran", s.labels[i])
		}
		h.Write(o.digest[:])
	}
	r.observe("payloads", hex.EncodeToString(h.Sum(nil)))
	return first
}

func (s *simd) pass(r *passRec) error {
	s.record(s.drive(), r)
	return nil
}

func (s *simd) verify(*passRec) error { return nil }

func (s *simd) layers(l *layerRun, r *passRec) error {
	if err := s.setup(); err != nil {
		return err
	}
	defer s.close()
	before := s.srv.server.MetricsSnapshot()
	outs := s.drive()
	first := s.record(outs, r)
	var all, hits, misses []float64
	for _, o := range outs {
		all = append(all, o.ms)
		if o.hit {
			hits = append(hits, o.ms)
		} else {
			misses = append(misses, o.ms)
		}
	}
	after := s.srv.server.MetricsSnapshot()
	stream := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	l.metrics["serve.hit_ratio"] = ratio(stream("serve.cells.cache_hits"), stream("serve.cells.completed"))
	l.metrics["serve.cells_simulated"] = stream("serve.cells.simulated")
	l.metrics["serve.cells_forked"] = stream("serve.snapshot.forked_cells")
	l.metrics["serve.job_p95_ms"] = quantile(all, 0.95)
	l.metrics["serve.hit_job_p50_ms"] = quantile(hits, 0.5)
	l.metrics["serve.miss_job_p50_ms"] = quantile(misses, 0.5)

	// The service's simulation work, traced: every distinct cell of the
	// request set, rebuilt from its result record, must reproduce the
	// record's counters.
	var cells []cell
	var want []stats.Counters
	keys := make(map[string]bool)
	for _, o := range first {
		doc, err := serve.DecodeResult(o.payload)
		if err != nil {
			return err
		}
		for _, e := range doc.Cells {
			if keys[e.Key] {
				continue
			}
			keys[e.Key] = true
			cells = append(cells, cell{name: e.Key[:12], in: input{e.Record.Workload, e.Record.Scale}, cfg: e.Record.Config})
			want = append(want, e.Record.Counters)
		}
	}
	counters, err := l.traceCells(cells)
	if err != nil {
		return err
	}
	for i := range cells {
		if counters[i] != want[i] {
			r.fail("cell %s: traced counters differ from the service's result", cells[i].name)
		}
	}
	return nil
}

// simdServer is a sweep service on a loopback listener.
type simdServer struct {
	server *serve.Server
	http   *http.Server
	client *http.Client
	url    string
	done   chan struct{}
}

// startServer starts a service with the given worker budget and waits
// until it has run the probe job.
func startServer(workers int, probe serve.JobRequest) (*simdServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simdServer{
		server: serve.NewServer(serve.Options{Workers: workers}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
	}
	s.http = &http.Server{Handler: s.server.Handler()}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed once stop closes it
	}()
	client := &serve.Client{BaseURL: s.url, HTTPClient: s.client}
	if _, _, err := client.RunJob(probe, nil); err != nil {
		s.stop()
		return nil, fmt.Errorf("probe job: %w", err)
	}
	return s, nil
}

// stop closes the listener and every connection, and waits for Serve to
// return.
func (s *simdServer) stop() {
	s.http.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"uvmsim/internal/core"
	"uvmsim/internal/cxl"
	"uvmsim/internal/obs"
	"uvmsim/internal/resultio"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

// ResultFormatVersion identifies the job result-payload schema; bump on
// incompatible changes.
const ResultFormatVersion = 1

// Job states reported by status and progress endpoints.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the number of cells simulating concurrently across
	// *all* jobs (0 = GOMAXPROCS). Every job's cells run through
	// sweep.Parallel under this shared budget, so one large job cannot
	// monopolize the pool unboundedly and many small jobs still shard
	// across cores.
	Workers int
	// MaxCells rejects jobs expanding to more cells than this
	// (0 = 4096), bounding a single submission's memory footprint.
	MaxCells int
	// CacheMaxEntries bounds the content-addressed result cache
	// (0 = unbounded); past the bound the least-recently-used cell is
	// evicted and recomputed, byte-identically, on its next miss.
	CacheMaxEntries int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxCells <= 0 {
		o.MaxCells = 4096
	}
	return o
}

// Server is the sweep service: job intake, the shared worker budget,
// and the content-addressed result cache. Create with NewServer and
// mount Handler on any http.Server.
type Server struct {
	opts  Options
	memo  *workloads.Memo
	cache *Cache
	// sem is the global cell budget: every simulating cell holds one
	// token, across all concurrent jobs.
	sem chan struct{}

	mu    sync.Mutex
	jobs  map[string]*jobState
	order []string // job IDs in submission order, for deterministic listings
	seq   uint64

	// Service counters, published as an obs metrics snapshot.
	jobsSubmitted  atomic.Uint64
	jobsCompleted  atomic.Uint64
	jobsFailed     atomic.Uint64
	cellsCompleted atomic.Uint64
	cellsSimulated atomic.Uint64
	cellsCached    atomic.Uint64
}

// NewServer returns a ready-to-mount service with an empty cache.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:  opts,
		memo:  workloads.NewMemo(),
		cache: NewCacheWithLimit(opts.CacheMaxEntries),
		sem:   make(chan struct{}, opts.Workers),
		jobs:  make(map[string]*jobState),
	}
}

// Cache exposes the server's result cache (load tests and stats).
func (s *Server) Cache() *Cache { return s.cache }

// JobStatus is the wire form of one job's progress.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// TotalCells and DoneCells drive progress displays; CacheHits counts
	// the done cells served from the content-addressed cache.
	TotalCells int    `json:"totalCells"`
	DoneCells  int    `json:"doneCells"`
	CacheHits  int    `json:"cacheHits"`
	Error      string `json:"error,omitempty"`
}

// Terminal reports whether the status will never change again.
func (st JobStatus) Terminal() bool { return st.State != StateRunning }

// jobState tracks one submitted job. Progress watchers never poll: each
// mutation closes the current update channel (a broadcast) and installs
// a fresh one, so the progress stream advances exactly when the job
// does — no wall-clock timers anywhere in the service.
type jobState struct {
	id   string
	name string

	mu      sync.Mutex
	total   int
	done    int
	hits    int
	state   string
	errMsg  string
	payload []byte
	update  chan struct{}
}

func newJobState(id, name string, total int) *jobState {
	return &jobState{id: id, name: name, total: total, state: StateRunning, update: make(chan struct{})}
}

func (j *jobState) broadcastLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

// wait returns a channel closed at the next state change.
func (j *jobState) wait() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.update
}

func (j *jobState) cellDone(hit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	if hit {
		j.hits++
	}
	j.broadcastLocked()
}

func (j *jobState) finish(payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.payload = payload
	j.broadcastLocked()
}

func (j *jobState) fail(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.errMsg = msg
	j.broadcastLocked()
}

func (j *jobState) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:         j.id,
		Name:       j.name,
		State:      j.state,
		TotalCells: j.total,
		DoneCells:  j.done,
		CacheHits:  j.hits,
		Error:      j.errMsg,
	}
}

// result returns the payload when the job is done.
func (j *jobState) result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload, j.state == StateDone
}

// Submit expands, registers and starts a job, returning its initial
// status. It is the programmatic equivalent of POST /v1/jobs (the load
// test and in-process tests use it directly).
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	cells, colos, err := req.expand()
	if err != nil {
		return JobStatus{}, err
	}
	total := len(cells) + len(colos)
	if total > s.opts.MaxCells {
		return JobStatus{}, fmt.Errorf("serve: job expands to %d cells (limit %d)", total, s.opts.MaxCells)
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	j := newJobState(id, req.Name, total)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	go s.runJob(j, cells, colos)
	return j.status(), nil
}

// job looks up a job by ID.
func (s *Server) job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes every cell through sweep.Parallel under the global
// worker budget, each cell holding its own worker token, and assembles
// the canonical result payload in cell order. A panicking cell (an
// invalid derived config, a model bug) aborts the sweep through
// sweep.Parallel's abort path — remaining workers stop claiming cells,
// in-flight cells finish, no goroutine leaks — and surfaces here as a
// failed job; the shared token pool is returned in full, so later jobs
// are unaffected.
func (s *Server) runJob(j *jobState, cells []cell, colos []coloCell) {
	defer func() {
		if r := recover(); r != nil {
			j.fail(fmt.Sprint(r))
			s.jobsFailed.Add(1)
		}
	}()
	fns := make([]func() []byte, 0, len(cells)+len(colos))
	for _, c := range cells {
		fns = append(fns, func() []byte { return s.runCell(j, c) })
	}
	for _, c := range colos {
		fns = append(fns, func() []byte { return s.runColoCell(j, c) })
	}
	payloads := sweep.Parallel(fns, s.opts.Workers)

	// Entry payloads are newline-terminated JSON documents; splice them
	// verbatim so a cache hit reproduces the bytes exactly. The colo
	// section is emitted only when present, keeping pure workload-sweep
	// payloads byte-identical to the pre-colo format.
	splice := func(buf *bytes.Buffer, ps [][]byte) {
		for i, p := range ps {
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(bytes.TrimRight(p, "\n"))
		}
	}
	var buf bytes.Buffer
	buf.WriteString("{\n  \"version\": ")
	fmt.Fprintf(&buf, "%d", ResultFormatVersion)
	if len(cells) == 0 {
		buf.WriteString(",\n  \"cells\": []")
	} else {
		buf.WriteString(",\n  \"cells\": [\n")
		splice(&buf, payloads[:len(cells)])
		buf.WriteString("\n  ]")
	}
	if len(colos) > 0 {
		buf.WriteString(",\n  \"colo\": [\n")
		splice(&buf, payloads[len(cells):])
		buf.WriteString("\n  ]")
	}
	buf.WriteString("\n}\n")
	j.finish(buf.Bytes())
	s.jobsCompleted.Add(1)
}

// runCell executes one cell — cache hit or simulation — and returns its
// canonical entry payload.
func (s *Server) runCell(j *jobState, c cell) []byte {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	b := s.memo.Get(c.workload, c.scale)
	cfg := core.DeriveConfig(b, 1, c.pct, c.policy, c.base)
	key := CellKey(c.workload, c.scale, c.pct, cfg)
	if p, ok := s.cache.Get(key); ok {
		s.cellsCached.Add(1)
		s.cellsCompleted.Add(1)
		j.cellDone(true)
		return p
	}
	res := core.Run(b, cfg)
	entry := &resultio.CellEntry{
		Version: resultio.CellFormatVersion,
		Key:     key,
		Record:  *resultio.FromResult(res, c.scale, c.pct),
	}
	var buf bytes.Buffer
	if err := resultio.WriteCellEntry(&buf, entry); err != nil {
		panic(fmt.Sprintf("serve: encoding cell entry: %v", err))
	}
	s.cache.Put(key, buf.Bytes())
	s.cellsSimulated.Add(1)
	s.cellsCompleted.Add(1)
	j.cellDone(false)
	return buf.Bytes()
}

// runColoCell executes one co-location cell — cache hit or scenario run
// — and returns its canonical entry payload. Construction and run
// errors abort the job through the sweep.Parallel panic path, exactly
// like an invalid workload-cell config.
func (s *Server) runColoCell(j *jobState, c coloCell) []byte {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	key := ColoKey(c.sc.GPUs, c.tenants, c.sc.Epochs, c.sc.Seed, c.sc.Cfg)
	if p, ok := s.cache.Get(key); ok {
		s.cellsCached.Add(1)
		s.cellsCompleted.Add(1)
		j.cellDone(true)
		return p
	}
	sc, err := cxl.NewScenario(c.sc)
	if err != nil {
		panic(fmt.Sprintf("serve: colo cell: %v", err))
	}
	res, err := sc.Run()
	if err != nil {
		panic(fmt.Sprintf("serve: colo cell: %v", err))
	}
	entry := &resultio.CXLEntry{
		Version: resultio.CXLFormatVersion,
		Key:     key,
		Scenario: resultio.CXLScenario{
			Name:    c.policy,
			Policy:  c.policy,
			GPUs:    c.sc.GPUs,
			Tenants: c.tenants,
			Seed:    c.sc.Seed,
			Result:  *res,
		},
	}
	var buf bytes.Buffer
	if err := resultio.WriteCXLEntry(&buf, entry); err != nil {
		panic(fmt.Sprintf("serve: encoding colo entry: %v", err))
	}
	s.cache.Put(key, buf.Bytes())
	s.cellsSimulated.Add(1)
	s.cellsCompleted.Add(1)
	j.cellDone(false)
	return buf.Bytes()
}

// MetricsSnapshot publishes the service counters in the repo's standard
// observability schema (obs.Snapshot, version 1), so the same tooling
// that reads simulation metrics documents reads the service's.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	cs := s.cache.Stats()
	return obs.Snapshot{
		Version: obs.MetricsFormatVersion,
		Name:    "simd",
		Counters: map[string]uint64{
			"serve.jobs.submitted":   s.jobsSubmitted.Load(),
			"serve.jobs.completed":   s.jobsCompleted.Load(),
			"serve.jobs.failed":      s.jobsFailed.Load(),
			"serve.cells.completed":  s.cellsCompleted.Load(),
			"serve.cells.simulated":  s.cellsSimulated.Load(),
			"serve.cells.cache_hits": s.cellsCached.Load(),
			"serve.cache.entries":    uint64(cs.Entries),
			"serve.cache.bytes":      cs.Bytes,
			"serve.cache.hits":       cs.Hits,
			"serve.cache.misses":     cs.Misses,
			"serve.cache.evictions":  cs.Evictions,
		},
	}
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs              submit a JobRequest, returns JobStatus (202)
//	GET  /v1/jobs              list job statuses in submission order
//	GET  /v1/jobs/{id}         one job's status
//	GET  /v1/jobs/{id}/progress  NDJSON status stream until terminal
//	GET  /v1/jobs/{id}/result  the job's result payload (when done)
//	GET  /v1/cells/{key}       one cached cell entry by content address
//	GET  /v1/cache             cache statistics
//	GET  /v1/metrics           service counters as an obs metrics snapshot
//	GET  /healthz              liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/cells/{key}", s.handleCell)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON emits v as indented JSON with the standard content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// httpError emits a JSON error document.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	states := make([]*jobState, 0, len(s.order))
	for _, id := range s.order {
		states = append(states, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(states))
	for i, j := range states {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleProgress streams NDJSON JobStatus snapshots: one line now, one
// per subsequent change, ending after the terminal snapshot. Watchers
// ride the job's broadcast channel — the stream advances exactly when
// cells complete, with no polling interval to tune.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		ch := j.wait()
		st := j.status()
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.status()
	payload, done := j.result()
	if !done {
		if st.State == StateFailed {
			httpError(w, http.StatusConflict, "job %s failed: %s", st.ID, st.Error)
			return
		}
		httpError(w, http.StatusConflict, "job %s still running (%d/%d cells)", st.ID, st.DoneCells, st.TotalCells)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Simd-Cache-Hits", fmt.Sprintf("%d", st.CacheHits))
	w.WriteHeader(http.StatusOK)
	w.Write(payload) //nolint:errcheck // client went away; nothing to do
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	p, ok := s.cache.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached cell %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(p) //nolint:errcheck // client went away; nothing to do
}

func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.MetricsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w) //nolint:errcheck // client went away; nothing to do
}

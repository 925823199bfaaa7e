package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
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

	mu     sync.Mutex
	total  int
	done   int
	hits   int
	state  string
	errMsg string
	// parts is the finished job's result payload, written in order
	// (frameResult).
	parts  [][]byte
	update chan struct{}
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

func (j *jobState) finish(parts [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.parts = parts
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

// result returns the payload parts when the job is done.
func (j *jobState) result() ([][]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.parts, j.state == StateDone
}

// Submit expands, registers and starts a job, returning its initial
// status. It is the programmatic equivalent of POST /v1/jobs (the load
// test and in-process tests use it directly).
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	cells, colos, err := req.plan(s.opts.MaxCells)
	if err != nil {
		return JobStatus{}, err
	}
	return s.start(req.Name, cells, colos), nil
}

// start registers a planned job and runs it in the background.
func (s *Server) start(name string, cells []cell, colos []coloCell) JobStatus {
	total := len(cells) + len(colos)
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	j := newJobState(id, name, total)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	go s.runJob(j, cells, colos)
	return j.status()
}

// job looks up a job by ID.
func (s *Server) job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes every cell through sweep.Parallel under the global
// worker budget, each cell holding its own worker token, and frames
// the canonical result payload around the entries in cell order. A
// panicking cell (an invalid derived config, a model bug) aborts the
// sweep through sweep.Parallel's abort path — remaining workers stop
// claiming cells, in-flight cells finish, no goroutine leaks — and
// surfaces here as a failed job; the shared token pool is returned in
// full, so later jobs are unaffected.
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
	j.finish(frameResult(sweep.Parallel(fns, s.opts.Workers), len(cells)))
	s.jobsCompleted.Add(1)
}

// The framing of a job result payload: these strings around the cell
// entries, in cell order.
var (
	frameHead      = []byte("{\n  \"version\": " + strconv.Itoa(ResultFormatVersion))
	frameNoCells   = []byte(",\n  \"cells\": []")
	frameCellsOpen = []byte(",\n  \"cells\": [\n")
	frameColoOpen  = []byte(",\n  \"colo\": [\n")
	frameSep       = []byte(",\n")
	frameClose     = []byte("\n  ]")
	frameTail      = []byte("\n}\n")
)

// frameResult returns a job's result payload as parts to write in
// order: the framing around every entry, each newline-trimmed. entries
// are the nCells workload-cell entries followed by the colo entries.
// Entry bytes are referenced, not copied, so a job's parts are the
// cache's own stored bytes and a cache hit reproduces them exactly. The
// colo section is emitted only when present, keeping pure
// workload-sweep payloads byte-identical to the pre-colo format.
func frameResult(entries [][]byte, nCells int) [][]byte {
	parts := make([][]byte, 0, 2*len(entries)+4)
	list := func(open []byte, es [][]byte) {
		parts = append(parts, open)
		for i, e := range es {
			if i > 0 {
				parts = append(parts, frameSep)
			}
			parts = append(parts, bytes.TrimRight(e, "\n"))
		}
		parts = append(parts, frameClose)
	}
	parts = append(parts, frameHead)
	if nCells == 0 {
		parts = append(parts, frameNoCells)
	} else {
		list(frameCellsOpen, entries[:nCells])
	}
	if len(entries) > nCells {
		list(frameColoOpen, entries[nCells:])
	}
	return append(parts, frameTail)
}

// runCell executes one cell — cache hit or simulation — and returns its
// canonical entry payload: the cache's stored bytes either way.
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
	p := s.cache.Put(key, buf.Bytes())
	s.cellsSimulated.Add(1)
	s.cellsCompleted.Add(1)
	j.cellDone(false)
	return p
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
	p := s.cache.Put(key, buf.Bytes())
	s.cellsSimulated.Add(1)
	s.cellsCompleted.Add(1)
	j.cellDone(false)
	return p
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

// maxSubmitBytes caps a job request body. A larger body is answered
// 413 with the limit in the message, never cut short and misread.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	name, cells, colos, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxSubmitBytes), s.opts.MaxCells)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "job request exceeds the %d MiB limit", maxSubmitBytes>>20)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.start(name, cells, colos))
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
	parts, done := j.result()
	if !done {
		if st.State == StateFailed {
			httpError(w, http.StatusConflict, "job %s failed: %s", st.ID, st.Error)
			return
		}
		httpError(w, http.StatusConflict, "job %s still running (%d/%d cells)", st.ID, st.DoneCells, st.TotalCells)
		return
	}
	w.Header().Set("X-Simd-Cache-Hits", strconv.Itoa(st.CacheHits))
	writePayload(w, parts...)
}

// writePayload sends a 200 JSON response of the parts in order, with
// their total length as Content-Length.
func writePayload(w http.ResponseWriter, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // client went away; nothing to do
		}
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	p, ok := s.cache.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached cell %q", key)
		return
	}
	writePayload(w, p)
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

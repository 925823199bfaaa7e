package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/cxl"
	"uvmsim/internal/resultio"
	"uvmsim/internal/workloads"
)

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

func smallJob(name string) JobRequest {
	return JobRequest{
		Name:            name,
		Scale:           0.05,
		Workloads:       []string{"bfs"},
		OversubPercents: []uint64{125},
		Policies:        []string{"adaptive"},
	}
}

// A submitted job must round-trip: accepted, progress-streamed to a
// terminal "done" status, and its result payload must decode into valid
// cell entries matching the requested matrix.
func TestJobRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})

	var updates []JobStatus
	st, payload, err := c.RunJob(smallJob("roundtrip"), func(u JobStatus) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.TotalCells != 1 || st.DoneCells != 1 {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	if st.Name != "roundtrip" {
		t.Fatalf("job name lost: %+v", st)
	}
	if len(updates) == 0 || !updates[len(updates)-1].Terminal() {
		t.Fatalf("progress stream did not end on a terminal status: %+v", updates)
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].DoneCells < updates[i-1].DoneCells {
			t.Fatalf("progress went backwards: %+v", updates)
		}
	}

	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(doc.Cells))
	}
	rec := doc.Cells[0].Record
	if rec.Workload != "bfs" || rec.OversubPercent != 125 || rec.Scale != 0.05 {
		t.Fatalf("unexpected cell record: %+v", rec)
	}
	if rec.Counters.Cycles == 0 {
		t.Fatal("cell simulated zero cycles")
	}
}

// Resubmitting an identical job must be served from the
// content-addressed cache — every cell a hit — and must return the
// byte-identical result payload. This is the core cacheability claim:
// determinism makes (config, workload, seed) cells content-addressable.
func TestIdenticalJobIsCacheHitWithIdenticalBytes(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 4})

	job := JobRequest{
		Scale:           0.05,
		Workloads:       []string{"bfs", "ra"},
		OversubPercents: []uint64{110, 125},
		Policies:        []string{"disabled", "adaptive"},
	}
	st1, payload1, err := c.RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1.TotalCells != 8 {
		t.Fatalf("matrix expanded to %d cells, want 8", st1.TotalCells)
	}
	if st1.CacheHits != 0 {
		t.Fatalf("cold job reported %d cache hits", st1.CacheHits)
	}

	st2, payload2, err := c.RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != st2.TotalCells {
		t.Fatalf("warm job: %d/%d cache hits, want all", st2.CacheHits, st2.TotalCells)
	}
	if !bytes.Equal(payload1, payload2) {
		t.Fatal("warm payload differs from cold payload")
	}

	cs, err := c.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Entries != 8 || cs.Hits < 8 {
		t.Fatalf("unexpected cache stats: %+v", cs)
	}

	// A different seed is a different cell: no hits, different payload.
	seeded := job
	seeded.Seeds = []uint64{12345}
	st3, payload3, err := c.RunJob(seeded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHits != 0 {
		t.Fatalf("distinct-seed job reported %d cache hits", st3.CacheHits)
	}
	if bytes.Equal(payload1, payload3) {
		t.Fatal("distinct-seed job returned identical payload")
	}
	_ = s
}

// A cell whose derived config fails validation panics inside the
// simulator; the panic must surface as a failed job — with the pool
// intact, so a subsequent healthy job still completes.
func TestPanicInCellFailsJobWithoutWedgingPool(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})

	bad := config.Default()
	bad.WarpSize = 64 // out of range: core.New panics on Validate
	st, err := c.Submit(JobRequest{
		Scale: 0.05,
		Cells: []CellSpec{{Workload: "bfs", OversubPercent: 125, Base: &bad}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("job state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "WarpSize") {
		t.Fatalf("failure did not carry the panic message: %q", st.Error)
	}
	if _, err := c.Result(st.ID); err == nil {
		t.Fatal("result endpoint served a failed job")
	}

	// The worker pool must survive the abort.
	if _, _, err := c.RunJob(smallJob("after-failure"), nil); err != nil {
		t.Fatalf("healthy job after failed job: %v", err)
	}
}

// A co-location unit whose scenario cannot be built fails its job the
// same way: the error reaches the status and the pool survives.
func TestColoErrorFailsJobWithoutWedgingPool(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})

	// plan rejects a tenant-less mix, so build the unit directly.
	bad := coloCell{sc: cxl.ScenarioConfig{Cfg: config.Default(), GPUs: 1}, policy: "cxl-repl"}
	st, err := c.Wait(s.start("bad-colo", jobPlan{units: []unit{&bad}}).ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "serve: colo cell: cxl: no tenants") {
		t.Fatalf("got %q %q, want failed with the scenario error", st.State, st.Error)
	}
	if _, _, err := c.RunJob(smallJob("after-failure"), nil); err != nil {
		t.Fatalf("healthy job after failed job: %v", err)
	}
}

// awaitStatus follows a job's state until done reports true, failing
// the test if that takes longer than a few seconds.
func awaitStatus(t *testing.T, j *jobState, done func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		ch := j.wait()
		if st := j.status(); done(st) {
			return st
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %s stuck at %+v", j.id, j.status())
		}
	}
}

// A unit is looked up before it queues for a worker token. With every
// token held, a job whose cells are all cached still completes, and in
// a job with a miss the cached cell completes while the miss waits for
// a token.
func TestCacheHitsSkipWorkerQueue(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	warm := smallJob("warm")
	if _, _, err := c.RunJob(warm, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	held := cap(s.sem)
	t.Cleanup(func() {
		for ; held > 0; held-- {
			<-s.sem
		}
	})
	submit := func(req JobRequest) *jobState {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(st.ID)
		return j
	}

	st := awaitStatus(t, submit(warm), JobStatus.Terminal)
	if st.State != StateDone || st.CacheHits != st.TotalCells {
		t.Fatalf("warm job with every token held: %+v, want all hits", st)
	}

	mixed := smallJob("mixed")
	mixed.Policies = []string{"adaptive", "disabled"} // a hit, then a miss
	j := submit(mixed)
	awaitStatus(t, j, func(st JobStatus) bool { return st.DoneCells > 0 })
	// Give a miss that wrongly skipped the queue time to finish.
	time.Sleep(50 * time.Millisecond)
	if st = j.status(); st.State != StateRunning || st.DoneCells != 1 || st.CacheHits != 1 {
		t.Fatalf("with every token held: %+v, want the hit done and the miss waiting", st)
	}
	<-s.sem
	held--
	if st = awaitStatus(t, j, JobStatus.Terminal); st.State != StateDone || st.CacheHits != 1 {
		t.Fatalf("after a token was released: %+v", st)
	}
}

// Concurrent clients submitting overlapping jobs must all complete and
// agree byte-for-byte on overlapping cells; exercised under -race.
func TestConcurrentOverlappingJobs(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 4})

	job := smallJob("overlap")
	const clients = 6
	payloads := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, payloads[i], errs[i] = c.RunJob(job, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("client %d payload differs", i)
		}
	}
}

// An oversized matrix must be rejected from its axis lengths, before
// any cell is built: 100 workloads x 100 oversubscription points x 100
// policies is 10^6 cells from a few KB of JSON.
func TestSubmitRejectsOversizedMatrixBeforeExpanding(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	req := JobRequest{}
	for i := 0; i < 100; i++ {
		req.Workloads = append(req.Workloads, "bfs")
		req.OversubPercents = append(req.OversubPercents, uint64(100+i))
		req.Policies = append(req.Policies, "adaptive")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Submit(req)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "1000000 cells (limit 4096)") {
		t.Fatalf("Submit err = %v, want the 1000000-cell limit error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the request allocated %d bytes, want < 1 MiB", got)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized job: got %s, want 400", resp.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, MaxCells: 2})
	dedupBase := config.Default()
	dedupBase.MMPipeline.Batcher = "dedup"

	cases := map[string]JobRequest{
		"empty job":        {},
		"unknown workload": {Workloads: []string{"nope"}},
		"unknown policy":   {Workloads: []string{"bfs"}, Policies: []string{"nope"}},
		"zero oversub":     {Workloads: []string{"bfs"}, OversubPercents: []uint64{0}},
		"negative scale":   {Scale: -1, Workloads: []string{"bfs"}},
		"oversized scale":  {Scale: 1e6, Workloads: []string{"bfs"}},
		"too many cells":   {Workloads: []string{"bfs", "ra", "nw"}},
		"unknown planner":  {Workloads: []string{"bfs"}, Pipelines: []config.PipelineSpec{{Planner: "nosuch"}}},
		"unknown evictor":  {Workloads: []string{"bfs"}, Pipelines: []config.PipelineSpec{{}, {Evictor: "mru"}}},
		"unknown governor": {Workloads: []string{"bfs"}, Pipelines: []config.PipelineSpec{{Prefetcher: "oracle"}}},
		"unknown batcher":  {Cells: []CellSpec{{Workload: "bfs", OversubPercent: 125, Base: &dedupBase}}},
	}
	for name, req := range cases {
		if _, err := c.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Unknown top-level fields must be rejected, not ignored.
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workloads":["bfs"],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: got %s, want 400", resp.Status)
	}

	// An unknown stage name is refused at submit, before any worker runs.
	code, msg := post(t, c, []byte(`{"scale":0.02,"workloads":["bfs"],"pipelines":[{"planner":"nosuch"}]}`))
	if code != http.StatusBadRequest || !strings.Contains(string(msg), `unknown migration planner \"nosuch\"`) {
		t.Fatalf("unknown planner: got %d %q, want 400 naming the planner", code, msg)
	}

	if _, err := c.Status("job-999"); err == nil {
		t.Error("status of unknown job succeeded")
	}
}

// The cells endpoint serves individual cached entries by content
// address, byte-identical to the entry embedded in the job payload.
func TestCellEndpointServesCachedEntry(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})

	_, payload, err := c.RunJob(smallJob("cells"), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	key := doc.Cells[0].Key

	resp, err := c.HTTPClient.Get(c.BaseURL + "/v1/cells/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cell: %s", resp.Status)
	}
	entry, err := resultio.ReadCellEntry(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Key != key || entry.Record.Workload != "bfs" {
		t.Fatalf("cell entry mismatch: %+v", entry)
	}

	missing, err := c.HTTPClient.Get(c.BaseURL + "/v1/cells/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing cell: got %s, want 404", missing.Status)
	}
}

// Service metrics ride the repo's standard obs snapshot schema.
func TestMetricsSnapshotSchema(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})

	if _, _, err := c.RunJob(smallJob("metrics"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunJob(smallJob("metrics"), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "simd" {
		t.Fatalf("snapshot name %q", snap.Name)
	}
	if got := snap.Counter("serve.jobs.completed"); got != 2 {
		t.Fatalf("serve.jobs.completed = %d, want 2", got)
	}
	if got := snap.Counter("serve.cells.simulated"); got != 1 {
		t.Fatalf("serve.cells.simulated = %d, want 1", got)
	}
	if got := snap.Counter("serve.cells.cache_hits"); got != 1 {
		t.Fatalf("serve.cells.cache_hits = %d, want 1", got)
	}
}

// The result payload for a cell must byte-match what a direct
// simulation of the same derived config writes — the service adds
// transport, not semantics.
func TestServiceMatchesDirectSimulation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})

	_, payload, err := c.RunJob(smallJob("direct"), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}

	b := workloads.NewMemo().Get("bfs", 0.05)
	cfg := core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, config.Default())
	res := core.Run(b, cfg)
	want := resultio.FromResult(res, 0.05, 125)
	if doc.Cells[0].Record.Counters != want.Counters {
		t.Fatalf("service counters diverge from direct run:\n%+v\n%+v",
			doc.Cells[0].Record.Counters, want.Counters)
	}
	if doc.Cells[0].Key != CellKey("bfs", 0.05, 125, cfg) {
		t.Fatal("cell key does not match CellKey of the derived config")
	}
}

func TestJobListOrder(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, _, err := c.RunJob(smallJob("list"), nil); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.HTTPClient.Get(c.BaseURL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if want := "job-" + string(rune('1'+i)); st.ID != want {
			t.Fatalf("job %d listed as %q, want %q", i, st.ID, want)
		}
	}
}

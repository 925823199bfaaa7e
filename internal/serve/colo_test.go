package serve

import (
	"bytes"
	"strings"
	"testing"

	"uvmsim/internal/cxl"
)

// A tiny colo sweep: one GPU, two tenants, a small pool, short epochs.
func smallColoJob(name string) JobRequest {
	return JobRequest{
		Name: name,
		Colo: []ColoSpec{
			{Tenants: "bfs:0:1,ra:0:0", GPUs: 1, PoolMB: 32, Epochs: 3, Seed: 7},
			{Tenants: "bfs:0:1,ra:0:0", GPUs: 1, PoolMB: 32, Epochs: 3, Seed: 7, PoolPolicy: "cxl-migrate"},
		},
	}
}

// A colo job must round-trip end to end: accepted, run to "done", its
// payload decoding into validated colo entries whose results match a
// direct in-process scenario run — the service and the CLI share one
// execution path.
func TestColoJobRoundTripMatchesDirectRun(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})

	st, payload, err := c.RunJob(smallColoJob("colo"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.TotalCells != 2 || st.DoneCells != 2 {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 0 || len(doc.Colo) != 2 {
		t.Fatalf("got %d cells / %d colo entries, want 0 / 2", len(doc.Cells), len(doc.Colo))
	}
	if doc.Colo[0].Scenario.Policy != "cxl-repl" || doc.Colo[1].Scenario.Policy != "cxl-migrate" {
		t.Fatalf("unexpected policies: %q, %q", doc.Colo[0].Scenario.Policy, doc.Colo[1].Scenario.Policy)
	}

	// Reproduce the first entry directly.
	req := smallColoJob("direct")
	p, err := req.plan(Options{}.withDefaults().MaxCells)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cxl.NewScenario(p.units[0].(*coloCell).sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := doc.Colo[0].Scenario.Result
	if got.Checksum != want.Checksum || got.SimCycles != want.SimCycles {
		t.Fatalf("service result diverged from direct run: cycles %d/checksum %d vs %d/%d",
			got.SimCycles, got.Checksum, want.SimCycles, want.Checksum)
	}
}

// Resubmitting an identical colo job must be served entirely from the
// content-addressed cache with a byte-identical payload.
func TestIdenticalColoJobIsCacheHitWithIdenticalBytes(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})

	_, p1, err := c.RunJob(smallColoJob("cold"), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, p2, err := c.RunJob(smallColoJob("warm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 2 {
		t.Fatalf("warm resubmission got %d cache hits, want 2", st.CacheHits)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("cache hit payload is not byte-identical")
	}
	if hits := s.MetricsSnapshot().Counters["serve.cells.cache_hits"]; hits != 2 {
		t.Fatalf("serve.cells.cache_hits = %d, want 2", hits)
	}
}

// A mixed submission runs workload cells and colo cells in one job; the
// payload carries both sections and stays decodable.
func TestMixedWorkloadAndColoJob(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})

	req := smallJob("mixed")
	req.Colo = smallColoJob("").Colo[:1]
	st, payload, err := c.RunJob(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCells != 2 || st.DoneCells != 2 {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 1 || len(doc.Colo) != 1 {
		t.Fatalf("got %d cells / %d colo entries, want 1 / 1", len(doc.Cells), len(doc.Colo))
	}
	if doc.Cells[0].Record.Workload != "bfs" {
		t.Fatalf("unexpected workload cell: %+v", doc.Cells[0].Record)
	}
	if doc.Colo[0].Scenario.Result.SimCycles == 0 {
		t.Fatal("colo cell simulated zero cycles")
	}
}

// Submit-time validation must reject malformed colo cells with errors
// naming the cell, never start the job.
func TestColoSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		spec ColoSpec
		want string
	}{
		{"noPool", ColoSpec{Tenants: "bfs:0", GPUs: 1}, "pooled tier"},
		{"badTenants", ColoSpec{Tenants: "bfs", GPUs: 1, PoolMB: 32}, "want workload:gpu"},
		{"unknownWorkload", ColoSpec{Tenants: "nosuch:0", GPUs: 1, PoolMB: 32}, "unknown workload"},
		{"gpuOutOfRange", ColoSpec{Tenants: "bfs:2", GPUs: 2, PoolMB: 32}, "bad GPU"},
		{"gpusOutOfRange", ColoSpec{Tenants: "bfs:0", GPUs: 0, PoolMB: 32}, "GPUs out of range"},
		{"unknownPolicy", ColoSpec{Tenants: "bfs:0", GPUs: 1, PoolMB: 32, PoolPolicy: "nosuch"}, "unknown pool policy"},
		{"negativeEpochs", ColoSpec{Tenants: "bfs:0", GPUs: 1, PoolMB: 32, Epochs: -1}, "epochs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(JobRequest{Colo: []ColoSpec{tc.spec}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Equivalent spellings of the same colo cell — elided default priority,
// defaulted vs spelled-out pool policy — must share one cache entry.
func TestColoKeyCanonicalization(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})

	a := JobRequest{Colo: []ColoSpec{{Tenants: "bfs:0:0,ra:0:1", GPUs: 1, PoolMB: 32, Epochs: 2, Seed: 5}}}
	b := JobRequest{Colo: []ColoSpec{{Tenants: "bfs:0,ra:0:1", GPUs: 1, PoolMB: 32, Epochs: 2, Seed: 5, PoolPolicy: "cxl-repl"}}}
	if _, _, err := c.RunJob(a, nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.RunJob(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Fatalf("equivalent spelling missed the cache: %+v", st)
	}
	if n := s.MetricsSnapshot().Counters["serve.cells.simulated"]; n != 1 {
		t.Fatalf("serve.cells.simulated = %d, want 1", n)
	}
}

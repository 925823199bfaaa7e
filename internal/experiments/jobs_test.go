package experiments

import (
	"net/http/httptest"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/cxl"
	"uvmsim/internal/mm"
	"uvmsim/internal/serve"
)

func runJob(t *testing.T, req serve.JobRequest) (*serve.ResultDoc, serve.JobStatus) {
	t.Helper()
	ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 4}).Handler())
	t.Cleanup(ts.Close)
	c := &serve.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	st, payload, err := c.RunJob(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := serve.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	return doc, st
}

// The Fig6 job must simulate exactly the cells the in-process Fig6And7
// sweep does: the summed simulated cycles across the job's cells must
// equal the sweep's deterministic cycle total, with the stock pipeline
// and with a custom one in the base configuration.
func TestFig6JobMatchesInProcessSweep(t *testing.T) {
	noPrefetch := config.Default()
	noPrefetch.MMPipeline = config.PipelineSpec{Prefetcher: "none"}
	for _, tc := range []struct {
		name string
		base config.Config
	}{{"default", config.Config{}}, {"no-prefetch", noPrefetch}} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}, Base: tc.base}
			_, _, want := Fig6And7Cycles(o)

			req, err := FigureJob("fig6", o)
			if err != nil {
				t.Fatal(err)
			}
			doc, st := runJob(t, req)
			if st.TotalCells != 8 {
				t.Fatalf("fig6 job expanded to %d cells, want 2 workloads x 4 policies", st.TotalCells)
			}
			var got uint64
			for _, cell := range doc.Cells {
				got += cell.Record.Counters.Cycles
			}
			if got != want {
				t.Fatalf("job cycles %d != in-process sweep cycles %d", got, want)
			}
		})
	}
}

// Every mapped figure must expand to the sweep shape Figures simulates
// for it.
func TestFigureJobShapes(t *testing.T) {
	o := Options{Scale: 0.05, Workloads: []string{"bfs"}}
	cells := map[string]int{
		"fig1": 3, // 3 oversubscription points
		"fig4": 3, // 3 thresholds
		"fig5": 3, // 3 policies
		"fig6": 4, // 4 policies
		"fig7": 4,
		"fig8": 1 + len(Fig8Penalties),
	}
	for _, fig := range FigureNames() {
		req, err := FigureJob(fig, o)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		_, st := runJob(t, req)
		if st.State != serve.StateDone {
			t.Fatalf("%s: job ended %s: %s", fig, st.State, st.Error)
		}
		if st.TotalCells != cells[fig] {
			t.Errorf("%s: %d cells, want %d", fig, st.TotalCells, cells[fig])
		}
	}

	for _, fig := range []string{"fig2", "fig3", "hints", "multigpu"} {
		if _, err := FigureJob(fig, o); err == nil {
			t.Errorf("%s (traced, pinned or multi-GPU cells) should have no job mapping", fig)
		}
	}
}

// Every sweep's job must simulate exactly the cells its in-process
// sweep does, in the same order: the job's cells, workload-major, must
// carry the derived configuration and simulated cycles of the matching
// (workload, column) cell of grid over the same column list. Each sweep
// runs with the stock pipeline and with a custom one in the base
// configuration; the tournament crosses two planners with the built-in
// and the learned prefetch governor.
func TestFigureJobsMatchInProcessSweeps(t *testing.T) {
	noPrefetch := config.Default()
	noPrefetch.MMPipeline = config.PipelineSpec{Prefetcher: "none"}
	type sweepCase struct {
		name string
		// build returns the job and the defaulted options and column
		// list the in-process sweep runs.
		build func(Options) (serve.JobRequest, Options, []column)
	}
	var cases []sweepCase
	for _, name := range FigureNames() {
		f := figureSpecs[name]
		cases = append(cases, sweepCase{name, func(o Options) (serve.JobRequest, Options, []column) {
			req, err := FigureJob(name, o)
			if err != nil {
				t.Fatal(err)
			}
			o = o.withDefaults()
			return req, o, f.cols(o.Base)
		}})
	}
	cases = append(cases, sweepCase{"tournament", func(o Options) (serve.JobRequest, Options, []column) {
		to := TournamentOptions{
			Options:     o,
			Planners:    []string{"threshold", "thrash-guard"},
			Prefetchers: []string{"", "bandit-pf"},
		}
		req := TournamentJob(to)
		to = to.withDefaults()
		return req, to.Options, to.columns()
	}})
	for _, tc := range cases {
		for _, pipe := range []struct {
			name string
			base config.Config
		}{{"default", config.Config{}}, {"no-prefetch", noPrefetch}} {
			t.Run(tc.name+"/"+pipe.name, func(t *testing.T) {
				req, o, cols := tc.build(Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}, Base: pipe.base})
				want := o.run(cellsOf(o.Workloads, cols))[0]
				doc, st := runJob(t, req)
				if st.State != serve.StateDone {
					t.Fatalf("job ended %s: %s", st.State, st.Error)
				}
				if len(doc.Cells) != len(o.Workloads)*len(cols) {
					t.Fatalf("job ran %d cells, want %d workloads x %d columns", len(doc.Cells), len(o.Workloads), len(cols))
				}
				for i, cell := range doc.Cells {
					got, exp := cell.Record, want[i].res
					if got.Workload != exp.Workload || got.Config != exp.Config {
						t.Fatalf("cell %d is %s under %+v, want %s under %+v", i, got.Workload, got.Config, exp.Workload, exp.Config)
					}
					if got.Counters.Cycles != exp.Runtime() {
						t.Fatalf("cell %d (%s, column %d): job %d cycles, in-process %d", i, got.Workload, i%len(cols), got.Counters.Cycles, exp.Runtime())
					}
				}
			})
		}
	}

	if _, err := FigureJob("fig2", Options{}); err == nil {
		t.Error("fig2 (trace characterization) should have no job mapping")
	}
}

// The colo job must run the tenant mix under every listed pool
// policy, and each entry's result must match a direct in-process
// scenario run — the job submission and cxl.NewScenario share one
// execution path.
func TestColoJobMatchesDirectScenarios(t *testing.T) {
	o := ColoJobOptions{Tenants: "bfs:0:1,ra:0:0", GPUs: 1, PoolMB: 32, Epochs: 3, Seed: 7}
	req := ColoJob(o)
	if len(req.Colo) != len(mm.PoolPolicyNames()) {
		t.Fatalf("job has %d colo cells, want one per policy (%d)", len(req.Colo), len(mm.PoolPolicyNames()))
	}
	doc, st := runJob(t, req)
	if st.State != serve.StateDone || len(doc.Colo) != len(req.Colo) {
		t.Fatalf("status %+v with %d colo entries", st, len(doc.Colo))
	}
	for i, policy := range mm.PoolPolicyNames() {
		entry := doc.Colo[i]
		if entry.Scenario.Policy != policy {
			t.Fatalf("entry %d policy = %q, want %q", i, entry.Scenario.Policy, policy)
		}
		cfg := config.Default()
		cfg.CXLPoolBytes = o.PoolMB << 20
		cfg.PoolPolicy = policy
		tenants, err := cxl.ParseTenants(o.Tenants, o.GPUs)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := cxl.NewScenario(cxl.ScenarioConfig{
			Cfg: cfg, GPUs: o.GPUs, Tenants: tenants,
			Epochs: o.Epochs, Seed: o.Seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := entry.Scenario.Result
		if got.Checksum != want.Checksum || got.SimCycles != want.SimCycles {
			t.Fatalf("policy %q: job result %d/%d diverged from direct run %d/%d",
				policy, got.SimCycles, got.Checksum, want.SimCycles, want.Checksum)
		}
	}
}

// The zero-value options select the canonical co-location mix.
func TestColoJobDefaults(t *testing.T) {
	req := ColoJob(ColoJobOptions{})
	if len(req.Colo) != len(mm.PoolPolicyNames()) {
		t.Fatalf("default job has %d cells, want %d", len(req.Colo), len(mm.PoolPolicyNames()))
	}
	c := req.Colo[0]
	if c.Tenants != "bfs:0:1,sssp:0:0,backprop:1:1" || c.GPUs != 2 || c.PoolMB != 64 || c.Seed != 3 {
		t.Fatalf("default cell = %+v, want the canonical bench mix", c)
	}
}

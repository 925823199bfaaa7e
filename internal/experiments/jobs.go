package experiments

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
	"uvmsim/internal/serve"
	"uvmsim/internal/workloads"
)

// FigureNames lists the figures expressible as simd job submissions:
// the sweep-shaped figures. (Figures 2 and 3 are characterization
// traces, not config-matrix sweeps, and stay CLI-only.)
func FigureNames() []string { return []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8"} }

// FigureJob expresses one figure sweep as a simd job submission: the
// exact cell set the in-process FigN function simulates, spelled as a
// serve.JobRequest. Submitting the job to a warm server reproduces the
// figure's raw cells entirely from cache; the figure functions and the
// service share the same derivation path (core.DeriveConfig), so their
// per-cell results are identical by construction.
func FigureJob(fig string, o Options) (serve.JobRequest, error) {
	o = o.withDefaults()
	req := serve.JobRequest{
		Name:      fig,
		Scale:     o.Scale,
		Workloads: o.Workloads,
		Base:      &o.Base,
	}
	switch fig {
	case "fig1":
		// Oversubscription sensitivity under the first-touch baseline.
		req.OversubPercents = []uint64{100, 125, 150}
		req.Policies = []string{"disabled"}
	case "fig4":
		// Static-threshold sensitivity: ts is a base-config field, so the
		// sweep needs explicit per-cell bases rather than a matrix axis.
		req.Workloads = nil
		for _, name := range o.Workloads {
			for _, ts := range []uint64{8, 16, 32} {
				base := o.Base
				base.StaticThreshold = ts
				req.Cells = append(req.Cells, serve.CellSpec{
					Workload:       name,
					OversubPercent: 125,
					Policy:         "always",
					Base:           &base,
				})
			}
		}
	case "fig5":
		// Policies with the working set fitting in device memory.
		req.OversubPercents = []uint64{100}
		req.Policies = []string{"disabled", "always", "adaptive"}
	case "fig6", "fig7":
		// One sweep backs both figures: all four schemes at 125% with the
		// paper's p=8 operating point.
		base := o.Base
		base.Penalty = 8
		req.Base = &base
		req.OversubPercents = []uint64{125}
		req.Policies = []string{"disabled", "always", "oversub", "adaptive"}
	case "fig8":
		// Penalty sensitivity: a Disabled baseline column plus one
		// Adaptive cell per penalty point, penalties living in the base.
		req.Workloads = nil
		for _, name := range o.Workloads {
			req.Cells = append(req.Cells, serve.CellSpec{
				Workload:       name,
				OversubPercent: 125,
				Policy:         "disabled",
				Base:           &o.Base,
			})
			for _, p := range Fig8Penalties {
				base := o.Base
				base.Penalty = p
				req.Cells = append(req.Cells, serve.CellSpec{
					Workload:       name,
					OversubPercent: 125,
					Policy:         "adaptive",
					Base:           &base,
				})
			}
		}
	default:
		return serve.JobRequest{}, fmt.Errorf("experiments: no job mapping for figure %q (have %v)", fig, FigureNames())
	}
	// The matrix figures derive each cell's pipeline from the request's
	// Pipelines axis, not from Base, so a custom pipeline must ride
	// there (the explicit-cell figures carry it in their per-cell bases).
	if len(req.Workloads) > 0 && o.Base.MMPipeline != (config.PipelineSpec{}) {
		req.Pipelines = []config.PipelineSpec{o.Base.MMPipeline}
	}
	if err := jobWorkloads(req); err != nil {
		return serve.JobRequest{}, err
	}
	return req, nil
}

// TournamentJob expresses a pipeline tournament as a simd job
// submission: every planner x prefetcher combination over the workload
// matrix, Adaptive at the configured oversubscription with the paper's
// p=8, exactly the cells Tournament simulates.
func TournamentJob(o TournamentOptions) serve.JobRequest {
	o = o.withDefaults()
	base := o.Base
	base.Penalty = 8
	req := serve.JobRequest{
		Name:            "tournament",
		Scale:           o.Scale,
		Workloads:       o.Options.Workloads,
		OversubPercents: []uint64{o.OversubPercent},
		Policies:        []string{"adaptive"},
		Base:            &base,
	}
	for _, pl := range o.Planners {
		for _, pf := range o.Prefetchers {
			spec := base.MMPipeline
			spec.Planner = pl
			spec.Prefetcher = pf
			req.Pipelines = append(req.Pipelines, spec)
		}
	}
	return req
}

// ColoJobOptions parameterizes a co-location sweep job. The zero value
// selects the canonical co-location mix: bfs and sssp co-scheduled
// on GPU 0, backprop alone on GPU 1, a 64MB pooled tier, seed 3, every
// pool policy.
type ColoJobOptions struct {
	// Tenants is the co-scheduled mix in "workload:gpu:priority" syntax.
	Tenants string
	// GPUs is the number of GPUs sharing the pool.
	GPUs int
	// PoolMB sizes the pooled CXL tier in MiB.
	PoolMB uint64
	// Epochs sizes the run (0 = scenario default).
	Epochs int
	// Seed drives the tenant streams.
	Seed uint64
	// Policies are the pool-policy names to sweep (empty = every
	// policy mm.PoolPolicyNames lists).
	Policies []string
}

func (o ColoJobOptions) withDefaults() ColoJobOptions {
	if o.Tenants == "" {
		o.Tenants = "bfs:0:1,sssp:0:0,backprop:1:1"
		if o.GPUs == 0 {
			o.GPUs = 2
		}
		if o.Seed == 0 {
			o.Seed = 3
		}
	}
	if o.GPUs == 0 {
		o.GPUs = 1
	}
	if o.PoolMB == 0 {
		o.PoolMB = 64
	}
	if len(o.Policies) == 0 {
		o.Policies = mm.PoolPolicyNames()
	}
	return o
}

// ColoJob expresses a CXL co-location pool-policy sweep as a simd job
// submission: the tenant mix run once per pool policy, the same
// scenarios a direct cxl.NewScenario run simulates. The runs are
// deterministic and content-addressed like every other cell, so
// resubmitting the sweep is a pure cache hit.
func ColoJob(o ColoJobOptions) serve.JobRequest {
	o = o.withDefaults()
	req := serve.JobRequest{Name: "colo"}
	for _, policy := range o.Policies {
		req.Colo = append(req.Colo, serve.ColoSpec{
			Tenants:    o.Tenants,
			GPUs:       o.GPUs,
			PoolMB:     o.PoolMB,
			PoolPolicy: policy,
			Epochs:     o.Epochs,
			Seed:       o.Seed,
		})
	}
	return req
}

// jobWorkloads guards the figure-job mappings against workload-set
// drift: a figure job must never reference a workload the registry does
// not know. (The serve package re-validates at submit time; this lets
// tests assert it early.)
func jobWorkloads(req serve.JobRequest) error {
	check := func(name string) error {
		if _, ok := workloads.Get(name); !ok {
			return fmt.Errorf("experiments: job references unknown workload %q", name)
		}
		return nil
	}
	for _, w := range req.Workloads {
		if err := check(w); err != nil {
			return err
		}
	}
	for _, c := range req.Cells {
		if err := check(c.Workload); err != nil {
			return err
		}
	}
	return nil
}

package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"uvmsim/internal/mm"
	"uvmsim/internal/serve"
)

// FigureNames lists the figure sweeps FigureJob submits (Figures 1 and
// 4-8), in order.
func FigureNames() []string {
	return slices.DeleteFunc(slices.Sorted(maps.Keys(figureSpecs)), func(name string) bool { return !figureSpecs[name].job })
}

// FigureJob expresses one figure sweep as a simd job submission: the
// exact cell set Figures simulates for it, from the same column list.
// Submitting the job to a warm server reproduces the figure's raw cells
// entirely from cache; Figures and the service share the same
// derivation path (core.DeriveConfig), so their per-cell results are
// identical.
func FigureJob(fig string, o Options) (serve.JobRequest, error) {
	f, ok := figureSpecs[fig]
	if !ok || !f.job {
		return serve.JobRequest{}, fmt.Errorf("experiments: no job mapping for figure %q (have %v)", fig, FigureNames())
	}
	o = o.withDefaults()
	return o.job(fig, f.cols(o.Base)), nil
}

// TournamentJob expresses a pipeline tournament as a simd job
// submission: exactly the cells Tournament simulates.
func TournamentJob(o TournamentOptions) serve.JobRequest {
	o = o.withDefaults()
	return o.job("tournament", o.columns())
}

// job spells a sweep as a simd job: one explicit cell per (workload,
// column), workload-major like grid, on a job base equal to the first
// column's base. A cell carries its own base only where its column's
// differs from that.
func (o Options) job(name string, cols []column) serve.JobRequest {
	req := serve.JobRequest{Name: name, Scale: o.Scale, Base: &cols[0].base}
	for _, w := range o.Workloads {
		for i := range cols {
			c := &cols[i]
			cell := serve.CellSpec{Workload: w, OversubPercent: c.pct, Policy: strings.ToLower(c.pol.String())}
			if c.base != cols[0].base {
				cell.Base = &c.base
			}
			req.Cells = append(req.Cells, cell)
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

// Package serve turns the one-shot sweep CLIs into a long-running
// simulation service: an HTTP/JSON server (simd) that accepts sweep
// jobs — a config matrix crossed with a workload set and pipeline
// specs — shards the resulting cells across a bounded worker pool built
// on sweep.Parallel, and memoizes every completed cell in a
// content-addressed result cache. Every simulation in this repository
// is single-threaded and deterministic, so a (Config, PipelineSpec,
// workload name+scale, seed) cell is perfectly cacheable: repeated or
// overlapping sweeps from concurrent clients are near-free cache hits
// with byte-identical payloads.
//
// The job-spec types here are the shared vocabulary: figures,
// tournaments and CXL co-location sweeps are expressible as submissions
// (internal/experiments FigureJob/TournamentJob/ColoJob) and the CLIs
// are thin clients (Client).
package serve

import (
	"fmt"
	"io"

	"uvmsim/internal/cliutil"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/cxl"
	"uvmsim/internal/mm"
	"uvmsim/internal/resultio"
	"uvmsim/internal/satmath"
	"uvmsim/internal/workloads"
)

// JobRequest is one sweep submission: a config matrix (workloads x
// oversubscription points x policies x pipelines x seeds), explicit
// cells, or both. The figure and tournament jobs (internal/experiments)
// are all explicit cells, one per (workload, column) of the sweep; the
// matrix is the compact spelling for hand-written jobs. The matrix
// expands in deterministic order — workload-major, then
// oversubscription, policy, pipeline, seed — followed by the explicit
// cells, so identical requests always produce the identical cell list
// (and therefore byte-identical result payloads).
type JobRequest struct {
	// Name is an optional client-side label echoed in status output; it
	// does not reach the result payload or any cache key.
	Name string `json:"name,omitempty"`
	// Scale is the workload scale factor shared by every cell
	// (0 = 1.0, the paper size).
	Scale float64 `json:"scale,omitempty"`

	// Matrix dimensions. A request may use the matrix, explicit Cells,
	// or both; the matrix is skipped when any dimension is empty after
	// defaulting (Workloads empty with no Cells is an error).
	Workloads       []string `json:"workloads,omitempty"`
	OversubPercents []uint64 `json:"oversubPercents,omitempty"`
	// Policies are migration-policy names (disabled/baseline, always,
	// oversub, adaptive); empty defaults to ["adaptive"].
	Policies []string `json:"policies,omitempty"`
	// Pipelines are memory-management stage selections (internal/mm)
	// crossed with the rest of the matrix; empty defaults to the single
	// zero spec (built-in stages). A name mm does not know is refused at
	// submit.
	Pipelines []config.PipelineSpec `json:"pipelines,omitempty"`
	// Seeds are PolicySeed values crossed with the matrix; empty
	// defaults to the base config's seed.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Base is the base system configuration for matrix cells
	// (nil = config.Default()). Per-cell derivation applies the paper's
	// policy pairing and sizes device memory from the cell's workload
	// and oversubscription, exactly as the figure sweeps do.
	Base *config.Config `json:"base,omitempty"`

	// Cells are explicit extra cells appended after the matrix.
	Cells []CellSpec `json:"cells,omitempty"`

	// Colo are multi-tenant co-location cells over the pooled CXL tier
	// (DESIGN.md §15), appended after the workload cells. Like every
	// other cell they are deterministic and content-addressed, so
	// repeated co-location sweeps are cache hits.
	Colo []ColoSpec `json:"colo,omitempty"`
}

// CellSpec is one explicit simulation cell.
type CellSpec struct {
	Workload       string `json:"workload"`
	OversubPercent uint64 `json:"oversubPercent"`
	// Policy is the migration-policy name (empty = adaptive).
	Policy string `json:"policy,omitempty"`
	// Base overrides the job-level base configuration for this cell
	// (e.g. a threshold, penalty or pipeline column of a sweep).
	Base *config.Config `json:"base,omitempty"`
}

// ColoSpec is one explicit co-location cell: a tenant mix co-scheduled
// over the pooled CXL tier under one pool policy. The run is
// deterministic (the PDES-equivalence property makes the worker count
// irrelevant, so the service always executes it sequentially) and the
// cache key covers everything behaviour-visible.
type ColoSpec struct {
	// Tenants is the co-scheduled mix in cxl.ParseTenants syntax:
	// "workload:gpu:priority" entries separated by commas.
	Tenants string `json:"tenants"`
	// GPUs is the number of GPUs sharing the pool.
	GPUs int `json:"gpus"`
	// PoolMB sizes the pooled CXL tier in MiB; it overrides the base
	// config's CXLPoolBytes when non-zero. The resulting pool must be
	// non-empty — a co-location cell without a pooled tier is an error.
	PoolMB uint64 `json:"poolMB,omitempty"`
	// PoolPolicy is the pool-policy name (empty = the default,
	// cxl-repl).
	PoolPolicy string `json:"poolPolicy,omitempty"`
	// Epochs and Seed size and seed the run (0 = scenario defaults).
	Epochs int    `json:"epochs,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Base overrides the job-level base configuration for this cell.
	Base *config.Config `json:"base,omitempty"`
}

// cell is one fully resolved unit of work.
type cell struct {
	workload string
	scale    float64
	pct      uint64
	policy   config.MigrationPolicy
	base     config.Config
}

// coloCell is one fully resolved co-location unit of work.
type coloCell struct {
	sc cxl.ScenarioConfig
	// policy is the resolved effective pool-policy name (the default
	// spelled out), used as the entry's scenario name.
	policy string
	// tenants is the canonical "workload:gpu:priority" spelling recorded
	// in the result entry.
	tenants []string
}

// MaxScale is the largest workload scale factor a job may request. It
// is 4x the largest scale any sweep here runs (16), and keeps a single
// request from reaching the workload builders with an unbounded size.
const MaxScale = 64

// defaultOversubPercents is the matrix default: the paper's
// oversubscription point.
var defaultOversubPercents = []uint64{125}

// cells validates the request's workload cells and expands them, over
// the job's base configuration, into their deterministic list.
func (r *JobRequest) cells(base config.Config) ([]cell, error) {
	scale := r.Scale
	if scale == 0 {
		scale = 1.0
	}
	if scale < 0 {
		return nil, fmt.Errorf("serve: scale %v must be positive", r.Scale)
	}
	if scale > MaxScale {
		return nil, fmt.Errorf("serve: scale %v exceeds the limit %d", r.Scale, MaxScale)
	}
	var cells []cell
	if len(r.Workloads) > 0 {
		pcts := r.OversubPercents
		if len(pcts) == 0 {
			pcts = defaultOversubPercents
		}
		policies := r.Policies
		if len(policies) == 0 {
			policies = []string{"adaptive"}
		}
		pipelines := r.Pipelines
		if len(pipelines) == 0 {
			pipelines = []config.PipelineSpec{{}}
		}
		for i, spec := range pipelines {
			if err := mm.CheckSpec(spec); err != nil {
				return nil, fmt.Errorf("serve: pipeline %d: %v", i, err)
			}
		}
		seeds := r.Seeds
		if len(seeds) == 0 {
			seeds = []uint64{base.PolicySeed}
		}
		for _, w := range r.Workloads {
			for _, pct := range pcts {
				for _, polName := range policies {
					for _, spec := range pipelines {
						for _, seed := range seeds {
							pol, err := cliutil.ParsePolicy(polName)
							if err != nil {
								return nil, fmt.Errorf("serve: %v", err)
							}
							b := base
							b.MMPipeline = spec
							b.PolicySeed = seed
							c := cell{workload: w, scale: scale, pct: pct, policy: pol, base: b}
							if err := c.validate(); err != nil {
								return nil, err
							}
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	for i, spec := range r.Cells {
		polName := spec.Policy
		if polName == "" {
			polName = "adaptive"
		}
		pol, err := cliutil.ParsePolicy(polName)
		if err != nil {
			return nil, fmt.Errorf("serve: cell %d: %v", i, err)
		}
		b := base
		if spec.Base != nil {
			b = *spec.Base
		}
		if err := mm.CheckSpec(b.MMPipeline); err != nil {
			return nil, fmt.Errorf("serve: cell %d: %v", i, err)
		}
		c := cell{workload: spec.Workload, scale: scale, pct: spec.OversubPercent, policy: pol, base: b}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("serve: cell %d: %v", i, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// coloCells validates and resolves the request's co-location cells
// over the job's base configuration.
func (r *JobRequest) coloCells(base config.Config) ([]coloCell, error) {
	var cells []coloCell
	for i, spec := range r.Colo {
		b := base
		if spec.Base != nil {
			b = *spec.Base
		}
		if spec.PoolMB > 0 {
			b.CXLPoolBytes = spec.PoolMB << 20
		}
		if b.CXLPoolBytes == 0 {
			return nil, fmt.Errorf("serve: colo cell %d: requires a pooled tier (set poolMB or CXLPoolBytes)", i)
		}
		policy, err := cliutil.ParseComponentName("pool policy", spec.PoolPolicy, mm.PoolPolicyNames())
		if err != nil {
			return nil, fmt.Errorf("serve: colo cell %d: %v", i, err)
		}
		// Canonicalize to the effective policy's name (the default
		// spelled out), so a defaulted and an explicit spelling of the
		// same cell share one cache entry.
		pol, err := mm.NewPoolPolicy(policy, b)
		if err != nil {
			return nil, fmt.Errorf("serve: colo cell %d: %v", i, err)
		}
		b.PoolPolicy = pol.Name()
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("serve: colo cell %d: %v", i, err)
		}
		if spec.Epochs < 0 {
			return nil, fmt.Errorf("serve: colo cell %d: epochs must be non-negative, got %d", i, spec.Epochs)
		}
		if spec.GPUs < 1 || spec.GPUs > core.MaxGPUs {
			return nil, fmt.Errorf("serve: colo cell %d: %d GPUs out of range (1..%d)", i, spec.GPUs, core.MaxGPUs)
		}
		tenants, err := cxl.ParseTenants(spec.Tenants, spec.GPUs)
		if err != nil {
			return nil, fmt.Errorf("serve: colo cell %d: %v", i, err)
		}
		strs := make([]string, len(tenants))
		for j, t := range tenants {
			strs[j] = fmt.Sprintf("%s:%d:%d", t.Workload, t.GPU, t.Priority)
		}
		cells = append(cells, coloCell{
			sc: cxl.ScenarioConfig{
				Cfg:     b,
				GPUs:    spec.GPUs,
				Tenants: tenants,
				Epochs:  spec.Epochs,
				Seed:    spec.Seed,
				// The service always runs co-location cells sequentially;
				// the PDES-equivalence property makes results identical at
				// any worker count, so Workers must not split cache keys.
				Workers: 1,
			},
			policy:  pol.Name(),
			tenants: strs,
		})
	}
	return cells, nil
}

// cellCount returns how many cells the request expands to, computed
// from the axis lengths alone with saturating arithmetic, so Submit can
// reject an oversized request before building any cell.
func (r *JobRequest) cellCount() uint64 {
	var n uint64
	if len(r.Workloads) > 0 {
		n = uint64(len(r.Workloads))
		// A defaulted (empty) axis contributes its single default value.
		for _, axis := range []int{len(r.OversubPercents), len(r.Policies), len(r.Pipelines), len(r.Seeds)} {
			n = satmath.Mul(n, uint64(max(axis, 1)))
		}
	}
	n = satmath.Add(n, uint64(len(r.Cells)))
	return satmath.Add(n, uint64(len(r.Colo)))
}

// ReadJobRequest decodes exactly one job request document: unknown
// fields and data after the document are errors. POST /v1/jobs and
// simd -submit both read requests through it.
func ReadJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	if err := resultio.DecodeStrict(r, &req); err != nil {
		return JobRequest{}, fmt.Errorf("serve: decoding job request: %w", err)
	}
	return req, nil
}

// decodeJobRequest is POST /v1/jobs without the run: ReadJobRequest,
// then plan. It returns the job's name and plan; it runs no cell.
func decodeJobRequest(body io.Reader, maxCells int) (string, jobPlan, error) {
	req, err := ReadJobRequest(body)
	if err != nil {
		return "", jobPlan{}, err
	}
	p, err := req.plan(maxCells)
	return req.Name, p, err
}

// jobPlan is a validated job: its units in payload order (workload
// cells, then co-location cells) and how many of them are workload
// cells.
type jobPlan struct {
	units  []unit
	nCells int
}

// plan runs every check that precedes a job's first cell: the cell
// count against maxCells, from the axis lengths alone so an oversized
// request is rejected before any cell is built, then the validation and
// resolution of every cell (which holds the scale to MaxScale). Units
// point into the resolved cell slices, so a plan costs one interface
// slice per job and nothing per cell.
func (r *JobRequest) plan(maxCells int) (jobPlan, error) {
	if n := r.cellCount(); n > uint64(maxCells) {
		return jobPlan{}, fmt.Errorf("serve: job expands to %d cells (limit %d)", n, maxCells)
	}
	base := config.Default()
	if r.Base != nil {
		base = *r.Base
	}
	cells, err := r.cells(base)
	if err != nil {
		return jobPlan{}, err
	}
	colos, err := r.coloCells(base)
	if err != nil {
		return jobPlan{}, err
	}
	if len(cells)+len(colos) == 0 {
		return jobPlan{}, fmt.Errorf("serve: job expands to no cells (empty matrix and no explicit cells)")
	}
	units := make([]unit, 0, len(cells)+len(colos))
	for i := range cells {
		units = append(units, &cells[i])
	}
	for i := range colos {
		units = append(units, &colos[i])
	}
	return jobPlan{units: units, nCells: len(cells)}, nil
}

// validate checks the fields submit-time can check cheaply per cell:
// the workload name and oversubscription point (stage names are checked
// once per pipeline spec, in cells). Full config validation
// happens when the cell's simulator is constructed — a failure there
// aborts the job through sweep.Parallel's panic path and surfaces as a
// failed job, never a wedged pool.
func (c *cell) validate() error {
	if _, ok := workloads.Get(c.workload); !ok {
		return fmt.Errorf("serve: unknown workload %q", c.workload)
	}
	if c.pct == 0 {
		return fmt.Errorf("serve: workload %q: oversubscription percent must be positive", c.workload)
	}
	return nil
}

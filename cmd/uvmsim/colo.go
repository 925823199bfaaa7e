package main

import (
	"fmt"
	"io"
	"os"

	"uvmsim"
	"uvmsim/internal/cliutil"
	"uvmsim/internal/cxl"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
)

// buildColoConfig maps the -cxl-* flags onto the tiered configuration
// and validates the result (page alignment, policy names, bandwidth
// sign — the same gate sweeps go through).
func buildColoConfig(o options) (uvmsim.Config, error) {
	cfg := uvmsim.DefaultConfig()
	cfg.CXLPoolBytes = o.cxlPoolMB << 20
	cfg.CXLBytesPerCycle = o.cxlBW
	cfg.CXLLatency = o.cxlLatency
	cfg.CXLReadThreshold = o.cxlThreshold
	name, err := cliutil.ParseComponentName("pool policy", o.poolPolicy, mm.PoolPolicyNames())
	if err != nil {
		return cfg, err
	}
	cfg.PoolPolicy = name
	if o.coloEpochs < 0 {
		return cfg, fmt.Errorf("-colo-epochs must be non-negative, got %d", o.coloEpochs)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// simulateColocation runs the multi-tenant co-location mode selected by
// -tenants: the listed workloads co-scheduled on -gpus GPUs over a
// pooled CXL tier, with per-tenant accounting and the fairness index
// printed alongside the controller counters (see DESIGN.md §15).
func simulateColocation(o options, stdout, stderr io.Writer) error {
	if o.cxlPoolMB == 0 {
		return fmt.Errorf("-tenants requires a pooled tier: set -cxl-pool-mb")
	}
	if o.graphFile != "" || o.spans || o.jsonOut != "" || o.traceOut != "" || o.checkInvariants != 0 {
		return fmt.Errorf("-graph, -spans, -json, -trace-out and -check-invariants apply to single-workload runs only (co-location mode)")
	}
	cfg, err := buildColoConfig(o)
	if err != nil {
		return err
	}
	tenants, err := cxl.ParseTenants(o.tenants, o.gpus)
	if err != nil {
		return err
	}
	sc := cxl.ScenarioConfig{
		Cfg:     cfg,
		GPUs:    o.gpus,
		Tenants: tenants,
		Epochs:  o.coloEpochs,
		Seed:    o.seed,
		Workers: o.workers,
	}
	s, err := cxl.NewScenario(sc)
	if err != nil {
		return err
	}
	// Open the metrics file before the run, so an unwritable path fails
	// before any simulated work.
	var reg *obs.Registry
	var metricsOut *os.File
	if o.metricsJSON != "" {
		if metricsOut, err = os.Create(o.metricsJSON); err != nil {
			return err
		}
		defer metricsOut.Close()
		reg = obs.NewRegistry()
		s.Observe(reg)
	}
	pol, err := mm.NewPoolPolicy(cfg.PoolPolicy, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "colo gpus=%d tenants=%d pool=%s policy=%s threshold=%d\n",
		o.gpus, len(tenants), memunits.HumanBytes(cfg.CXLPoolBytes),
		pol.Name(), cfg.CXLThreshold())
	r, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cycles=%d checksum=%d fairness=%.3f replications=%d promotions=%d demotions=%d invalidations=%d evictions=%d\n",
		r.SimCycles, r.Checksum, r.Fairness, r.Replications, r.Promotions,
		r.Demotions, r.Invalidations, r.Evictions)
	if o.csv {
		fmt.Fprintln(stdout, "tenant,workload,gpu,priority,accesses,local_hits,pool_accesses,cross_accesses,avg_latency_cycles,peak_pages,evicted_pages")
		for i, tn := range r.Tenants {
			fmt.Fprintf(stdout, "%d,%s,%d,%d,%d,%d,%d,%d,%.3f,%d,%d\n",
				i, tn.Workload, tn.GPU, tn.Priority, tn.Accesses, tn.LocalHits,
				tn.PoolAccesses, tn.CrossAccess, tn.AvgLatency, tn.PeakPages, tn.EvictedPages)
		}
	} else {
		for i, tn := range r.Tenants {
			fmt.Fprintf(stdout, "tenant%d %-12s gpu=%d prio=%d accesses=%d local=%d pool=%d cross=%d avg_latency=%.1f peak_pages=%d evicted_pages=%d\n",
				i, tn.Workload, tn.GPU, tn.Priority, tn.Accesses, tn.LocalHits,
				tn.PoolAccesses, tn.CrossAccess, tn.AvgLatency, tn.PeakPages, tn.EvictedPages)
		}
	}
	if o.metricsJSON != "" {
		if err := reg.Collect().WriteJSON(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", o.metricsJSON)
	}
	return nil
}

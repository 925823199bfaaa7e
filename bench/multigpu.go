package main

import (
	"fmt"
	"time"

	"uvmsim"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/cxl"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/workloads"
)

// clusterGPUs is the cluster size of multigpu-pdes.
const clusterGPUs = 4

// coloTenants is the canonical co-location mix: bfs and sssp sharing GPU
// 0, backprop alone on GPU 1, over a 64 MiB pooled tier.
const (
	coloTenants = "bfs:0:1,sssp:0:0,backprop:1:1"
	coloGPUs    = 2
	coloPoolMB  = 64
)

// multiGPU runs 4-GPU clusters and the co-location mix, both on the
// parallel engine with nproc workers. Its jobs are the three cluster
// runs and the co-location runs, one per pool policy.
type multiGPU struct {
	p     params
	ins   []input
	built map[input]*workloads.Built
	colos []cxl.ScenarioConfig
}

func newMultiGPU(p params) runner {
	scale := pick(p.smoke, 2.0, 0.1)
	return &multiGPU{p: p, ins: []input{{"bfs", scale}, {"sssp", scale}, {"ra", scale}}}
}

// clusterConfig derives the per-GPU config: each GPU's share of the
// working set is 125% of its memory, under Adaptive.
func (w *multiGPU) clusterConfig(b *workloads.Built, workers int) config.Config {
	base := config.Default()
	base.ClusterWorkers = workers
	return core.DeriveConfig(b, clusterGPUs, 125, uvmsim.PolicyAdaptive, base)
}

// coloConfigs is the mix under every registered pool policy, seeded from
// the run's seed.
func (w *multiGPU) coloConfigs(workers int) ([]cxl.ScenarioConfig, error) {
	tenants, err := cxl.ParseTenants(coloTenants, coloGPUs)
	if err != nil {
		return nil, err
	}
	var scs []cxl.ScenarioConfig
	for _, name := range mm.PoolPolicyNames() {
		cfg := config.Default()
		cfg.CXLPoolBytes = coloPoolMB << 20
		cfg.PoolPolicy = name
		scs = append(scs, cxl.ScenarioConfig{Cfg: cfg, GPUs: coloGPUs, Tenants: tenants, Seed: w.p.seed, Workers: workers})
	}
	return scs, nil
}

func (w *multiGPU) setup() error {
	w.built = buildAll(w.ins)
	var err error
	w.colos, err = w.coloConfigs(w.p.nproc)
	return err
}

// runColo runs one co-location scenario and returns its result.
func runColo(sc cxl.ScenarioConfig) (*cxl.Result, error) {
	s, err := cxl.NewScenario(sc)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

func coloKey(sc cxl.ScenarioConfig) string {
	return fmt.Sprintf("colo.%s@seed=%d", sc.Cfg.PoolPolicy, sc.Seed)
}

func (w *multiGPU) pass(r *passRec) error {
	for _, in := range w.ins {
		b := w.built[in]
		res := uvmsim.NewCluster(b, w.clusterConfig(b, w.p.nproc), clusterGPUs).Run()
		r.attempted++
		r.observe("makespan."+in.name, fmt.Sprint(res.Cycles))
	}
	for _, sc := range w.colos {
		res, err := runColo(sc)
		r.attempted++
		if err != nil {
			r.fail("%s: %v", coloKey(sc), err)
			continue
		}
		r.observe(coloKey(sc), fmt.Sprintf("%016x", res.Checksum))
	}
	return nil
}

// verify reruns the co-location mix sequentially: the parallel engine
// must reproduce it exactly for any seed.
func (w *multiGPU) verify(r *passRec) error {
	seq, err := w.coloConfigs(1)
	if err != nil {
		return err
	}
	for _, sc := range seq {
		res, err := runColo(sc)
		r.attempted++
		if err != nil {
			r.fail("sequential %s: %v", coloKey(sc), err)
			continue
		}
		if got := fmt.Sprintf("%016x", res.Checksum); got != r.sums[coloKey(sc)] {
			r.fail("%s: parallel %s, sequential %s", coloKey(sc), r.sums[coloKey(sc)], got)
		}
	}
	return nil
}

func (w *multiGPU) close() {}

// observedCluster runs one cluster with a metrics registry on GPU 0,
// which also receives the parallel engine's step counts.
func observedCluster(b *workloads.Built, cfg config.Config) (uint64, obs.Snapshot) {
	c := uvmsim.NewCluster(b, cfg, clusterGPUs)
	run := &obs.Run{Reg: obs.NewRegistry()}
	c.Observe(func(gpu int) *obs.Run {
		if gpu == 0 {
			return run
		}
		return nil
	})
	res := c.Run()
	return res.Cycles, run.Collect()
}

// layers runs every cluster sequentially and in parallel, untraced, with
// the parallel engine's counts taken through Cluster.Observe; both must
// give the same makespans. The per-layer self times come from the same
// inputs run as traced single-GPU cells (Adaptive, 125% of one GPU).
func (w *multiGPU) layers(l *layerRun, r *passRec) error {
	if err := w.setup(); err != nil {
		return err
	}
	var seqS, parS, events, steps, eff float64
	var cells []cell
	for _, in := range w.ins {
		b := w.built[in]
		start := time.Now()
		cycles, _ := observedCluster(b, w.clusterConfig(b, 1))
		seqS += time.Since(start).Seconds()
		r.observe("makespan."+in.name, fmt.Sprint(cycles))

		start = time.Now()
		cycles, snap := observedCluster(b, w.clusterConfig(b, w.p.nproc))
		parS += time.Since(start).Seconds()
		r.attempted++
		r.observe("makespan."+in.name, fmt.Sprint(cycles))
		events += float64(snap.Counter("sim.events_fired"))
		steps += float64(snap.Counter(obs.MetricPDESSteps))
		eff += snap.Gauges[obs.MetricPDESEfficiency] / float64(len(w.ins))

		cfg := core.DeriveConfig(b, 1, 125, uvmsim.PolicyAdaptive, config.Default())
		cells = append(cells, cell{name: in.name, in: in, cfg: cfg})
	}
	l.metrics["multigpu.pdes_speedup"] = ratio(seqS, parS)
	l.metrics["multigpu.pdes_steps"] = steps
	l.metrics["multigpu.events_per_step"] = ratio(events, steps)
	l.metrics["multigpu.pdes_efficiency"] = eff
	if _, err := l.traceCells(cells); err != nil {
		return err
	}

	// The co-location mix under every pool policy, sequential against
	// parallel; the runs are short, so each side is the median of five
	// sweeps. Fairness is the default pool policy's.
	seq, err := w.coloConfigs(1)
	if err != nil {
		return err
	}
	def, err := mm.NewPoolPolicy("", config.Default())
	if err != nil {
		return err
	}
	var seqT, parT []float64
	var fairness float64
	for rep := 0; rep < 5; rep++ {
		var seqRep, parRep float64
		for i := range seq {
			start := time.Now()
			sres, err := runColo(seq[i])
			seqRep += time.Since(start).Seconds()
			if err != nil {
				return err
			}
			start = time.Now()
			pres, err := runColo(w.colos[i])
			parRep += time.Since(start).Seconds()
			if err != nil {
				return err
			}
			r.observe(coloKey(w.colos[i]), fmt.Sprintf("%016x", pres.Checksum))
			if sres.Checksum != pres.Checksum {
				r.fail("%s: parallel %016x, sequential %016x", coloKey(seq[i]), pres.Checksum, sres.Checksum)
			}
			if seq[i].Cfg.PoolPolicy == def.Name() {
				fairness = pres.Fairness
			}
		}
		seqT, parT = append(seqT, seqRep), append(parT, parRep)
	}
	l.metrics["cxl.colo_speedup"] = ratio(median(seqT), median(parT))
	l.metrics["cxl.fairness"] = fairness
	return nil
}

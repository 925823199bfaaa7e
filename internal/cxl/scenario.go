package cxl

import (
	"fmt"
	"hash/fnv"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/devmem"
	"uvmsim/internal/interconnect"
	"uvmsim/internal/learn"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/workloads"
)

// TenantSpec describes one co-scheduled tenant: a catalog workload
// identity (which shapes its synthetic access stream), the GPU its
// compute runs on, an eviction priority (higher = more protected) and
// a private working set in 64KB blocks.
type TenantSpec struct {
	Workload string
	GPU      int
	Priority int
	// Blocks is the tenant's private working set in 64KB blocks
	// (0 selects the default).
	Blocks uint64
}

// DefaultTenantBlocks is the private working set used when a spec
// leaves Blocks zero.
const DefaultTenantBlocks = 64

// ScenarioConfig parameterizes one co-location run.
type ScenarioConfig struct {
	// Cfg supplies the machine model: DRAM latency, PCIe link, the CXL
	// port (CXL* fields) and the pool policy name.
	Cfg config.Config
	// GPUs is the number of GPUs sharing the pool (1..core.MaxGPUs).
	GPUs int
	// Tenants are the co-scheduled streams. At least one; GPU indices
	// must be in range. Tenant ids are positional.
	Tenants []TenantSpec
	// SharedBlocks is the read-mostly region every tenant also touches
	// (the graph/lookup structure co-located workloads share). It is
	// what read-only replication pays off on. 0 selects the default.
	SharedBlocks uint64
	// DeviceBlocks is each GPU's device-tier capacity in blocks.
	// 0 selects a capacity that forces sharing pressure.
	DeviceBlocks uint64
	// Epochs and AccessesPerEpoch size the run. Zero selects defaults.
	Epochs           int
	AccessesPerEpoch int
	// Seed drives every tenant's stream generator. Equal seeds produce
	// byte-identical runs at any worker count.
	Seed uint64
	// Workers is the coordinator's drain thread count: values below 1
	// mean one (the calling goroutine), larger ones clamp to GPUs.
	Workers int
}

// Scenario defaults.
const (
	DefaultSharedBlocks     = 96
	DefaultEpochs           = 12
	DefaultAccessesPerEpoch = 400
	// computeGap is the fixed issue gap between a tenant's accesses.
	computeGap = 20
)

func (sc *ScenarioConfig) normalize() error {
	if sc.GPUs < 1 || sc.GPUs > core.MaxGPUs {
		return fmt.Errorf("cxl: %d GPUs out of range (1..%d)", sc.GPUs, core.MaxGPUs)
	}
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("cxl: no tenants")
	}
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		if _, ok := workloads.Get(t.Workload); !ok {
			return fmt.Errorf("cxl: tenant %d: unknown workload %q", i, t.Workload)
		}
		if t.GPU < 0 || t.GPU >= sc.GPUs {
			return fmt.Errorf("cxl: tenant %d: GPU %d out of range (0..%d)", i, t.GPU, sc.GPUs-1)
		}
		if t.Blocks == 0 {
			t.Blocks = DefaultTenantBlocks
		}
	}
	if sc.SharedBlocks == 0 {
		sc.SharedBlocks = DefaultSharedBlocks
	}
	if sc.DeviceBlocks == 0 {
		// Half the per-GPU demand: enough to matter, tight enough to
		// keep eviction pressure on.
		var perGPU uint64
		for _, t := range sc.Tenants {
			if t.GPU == 0 {
				perGPU += t.Blocks
			}
		}
		if perGPU == 0 {
			perGPU = DefaultTenantBlocks
		}
		sc.DeviceBlocks = (perGPU + sc.SharedBlocks) / 2
		if sc.DeviceBlocks == 0 {
			sc.DeviceBlocks = 1
		}
	}
	if sc.Epochs == 0 {
		sc.Epochs = DefaultEpochs
	}
	if sc.AccessesPerEpoch == 0 {
		sc.AccessesPerEpoch = DefaultAccessesPerEpoch
	}
	sc.Workers = min(max(sc.Workers, 1), sc.GPUs)
	return nil
}

// tenant is one stream's runtime state. All of it is private to the
// tenant's GPU during an epoch.
type tenant struct {
	spec    TenantSpec
	id      devmem.TenantID
	regular bool
	rng     *learn.RNG
	// base is the tenant's first private pool block; the shared region
	// is [0, sharedBlocks).
	base   uint64
	cursor uint64 // sequential position for regular streams

	accesses     uint64
	localHits    uint64
	poolAccesses uint64
	crossAccess  uint64 // served from another GPU's tier over PCIe
	totalLatency uint64
}

// TenantResult is one tenant's share of a scenario result.
type TenantResult struct {
	Workload     string  `json:"workload"`
	GPU          int     `json:"gpu"`
	Priority     int     `json:"priority"`
	Accesses     uint64  `json:"accesses"`
	LocalHits    uint64  `json:"local_hits"`
	PoolAccesses uint64  `json:"pool_accesses"`
	CrossAccess  uint64  `json:"cross_accesses"`
	AvgLatency   float64 `json:"avg_latency_cycles"`
	PeakPages    uint64  `json:"peak_pages"`
	EvictedPages uint64  `json:"evicted_pages"`
}

// Result is one scenario run's deterministic outcome.
type Result struct {
	SimCycles     uint64         `json:"sim_cycles"`
	Checksum      uint64         `json:"checksum"`
	Fairness      float64        `json:"fairness"`
	Replications  uint64         `json:"replications"`
	Promotions    uint64         `json:"promotions"`
	Demotions     uint64         `json:"demotions"`
	Invalidations uint64         `json:"invalidations"`
	Evictions     uint64         `json:"evictions"`
	Tenants       []TenantResult `json:"tenants"`
}

// gpuLinks are one GPU's two private links: PCIe to the host (the path
// to another GPU's device tier) and the CXL port into the pool.
type gpuLinks struct {
	pcie *interconnect.Link
	cxl  *interconnect.CXL
}

// Scenario is one constructed co-location run.
type Scenario struct {
	cfg     ScenarioConfig
	ctl     *Controller
	engines []*sim.Engine
	links   []gpuLinks
	tenants []*tenant
	byGPU   [][]*tenant
	logs    [][]request
	reg     *obs.Registry
}

// NewScenario validates and constructs the run.
func NewScenario(sc ScenarioConfig) (*Scenario, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	if err := sc.Cfg.Validate(); err != nil {
		return nil, err
	}
	// Resolve the pool policy up front so an unknown name is an error,
	// not a construction panic.
	if _, err := mm.NewPoolPolicy(sc.Cfg.PoolPolicy, sc.Cfg); err != nil {
		return nil, err
	}
	prio := make([]int, len(sc.Tenants))
	var totalBlocks uint64 = sc.SharedBlocks
	for i, t := range sc.Tenants {
		prio[i] = t.Priority
		totalBlocks += t.Blocks
	}
	s := &Scenario{
		cfg:     sc,
		ctl:     NewController(sc.Cfg, sc.GPUs, totalBlocks, sc.DeviceBlocks, prio),
		engines: make([]*sim.Engine, sc.GPUs),
		links:   make([]gpuLinks, sc.GPUs),
		byGPU:   make([][]*tenant, sc.GPUs),
		logs:    make([][]request, sc.GPUs),
	}
	for g := 0; g < sc.GPUs; g++ {
		eng := sim.NewEngine()
		s.engines[g] = eng
		s.links[g] = gpuLinks{
			pcie: interconnect.New(eng, sc.Cfg.PCIeBytesPerCycle, sim.Cycle(sc.Cfg.PCIeLatency), sc.Cfg.PCIeHeaderBytes, sc.Cfg.RemoteWirePenalty),
			cxl:  interconnect.NewCXL(eng, sc.Cfg.CXLPortBytesPerCycle(), sim.Cycle(sc.Cfg.CXLPortLatency()), 0),
		}
	}
	base := sc.SharedBlocks
	for i, spec := range sc.Tenants {
		t := &tenant{
			spec:    spec,
			id:      devmem.TenantID(i),
			regular: workloads.IsRegular(spec.Workload),
			rng:     learn.NewRNG(sc.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)),
			base:    base,
		}
		base += spec.Blocks
		s.tenants = append(s.tenants, t)
		s.byGPU[spec.GPU] = append(s.byGPU[spec.GPU], t)
	}
	return s, nil
}

// Observe attaches a metrics registry; the scenario publishes controller
// and per-tenant counters plus the fairness gauge at collection time.
func (s *Scenario) Observe(reg *obs.Registry) {
	s.reg = reg
	if reg == nil {
		return
	}
	reg.RegisterProvider(func(e obs.Emitter) {
		e.Counter("cxl.replications", s.ctl.Replications)
		e.Counter("cxl.promotions", s.ctl.Promotions)
		e.Counter("cxl.demotions", s.ctl.Demotions)
		e.Counter("cxl.invalidations", s.ctl.Invalidations)
		e.Counter("cxl.evictions", s.ctl.Evictions)
		for i, t := range s.tenants {
			p := fmt.Sprintf("cxl.tenant%d.", i)
			e.Counter(p+"accesses", t.accesses)
			e.Counter(p+"local_hits", t.localHits)
			e.Counter(p+"pool_accesses", t.poolAccesses)
			e.Counter(p+"cross_accesses", t.crossAccess)
			e.Counter(p+"latency_cycles", t.totalLatency)
		}
		e.Gauge("cxl.fairness_jain", s.fairness())
	})
	for g, l := range s.links {
		prefix := fmt.Sprintf("cxl.link.gpu%d.", g)
		interconnect.PublishConnMetrics(reg, prefix+"cxl", l.cxl)
		interconnect.PublishConnMetrics(reg, prefix+"pcie", l.pcie)
	}
}

// nextBlock draws the tenant's next block: regular streams walk their
// private range sequentially with periodic shared-region reads;
// irregular streams mix a hot shared set with uniform private access.
func (t *tenant) nextBlock(shared uint64) (block uint64, write bool) {
	if t.regular {
		// 3 of 4 accesses stream through the private range; the rest
		// read the shared structure.
		if t.rng.Intn(4) != 0 {
			b := t.base + t.cursor%t.spec.Blocks
			t.cursor++
			// Streaming writes: every fourth private access stores.
			return b, t.rng.Intn(4) == 0
		}
		return uint64(t.rng.Intn(int(shared))), false
	}
	// Irregular: half the accesses chase the shared structure (reads,
	// with rare updates), half scatter over the private range.
	if t.rng.Intn(2) == 0 {
		// Zipf-ish: concentrate on the first quarter of the shared set.
		n := int(shared)
		b := t.rng.Intn(n)
		if t.rng.Intn(4) != 0 {
			b = t.rng.Intn((n + 3) / 4)
		}
		return uint64(b), t.rng.Intn(50) == 0
	}
	b := t.base + uint64(t.rng.Intn(int(t.spec.Blocks)))
	return b, t.rng.Intn(3) == 0
}

// runEpochStreams schedules every tenant stream of every GPU and drains
// the engines through the coordinator. Streams never interact inside an
// epoch: controller state is frozen during the drain, and accesses read
// it and append to their own GPU's log only, so each engine can run to
// empty on its own.
func (s *Scenario) runEpochStreams(co *sim.Coordinator) {
	for g := range s.engines {
		gpu := g
		for _, t := range s.byGPU[g] {
			tn := t
			remaining := s.cfg.AccessesPerEpoch
			var step func()
			step = func() {
				if remaining == 0 {
					return
				}
				remaining--
				done := sim.Cycle(0)
				start := s.engines[gpu].Now()
				block, write := tn.nextBlock(s.cfg.SharedBlocks)
				s.logs[gpu] = append(s.logs[gpu], request{block: block, tenant: tn.id, write: write})
				tn.accesses++
				switch home := s.ctl.Home(block); {
				case home == gpu,
					!write && s.ctl.Replicated(block, gpu):
					// Local DRAM hit: promoted here, or a read served
					// by this GPU's replica.
					tn.localHits++
					done = start + sim.Cycle(s.cfg.Cfg.DRAMLatency)
				case home == NoGPU:
					// Pool-resident (a write through a replica also
					// lands here): one CXL transaction.
					tn.poolAccesses++
					dir := interconnect.HostToDevice
					if write {
						dir = interconnect.DeviceToHost
					}
					done = s.links[gpu].cxl.RemoteAccess(dir, memunits.SectorSize, nil)
				default:
					// Promoted to another GPU: routed over PCIe through
					// host — the expensive ping-pong path.
					tn.crossAccess++
					dir := interconnect.HostToDevice
					if write {
						dir = interconnect.DeviceToHost
					}
					done = s.links[gpu].pcie.RemoteAccess(dir, memunits.SectorSize, nil)
					done += sim.Cycle(s.cfg.Cfg.RemoteAccessLatency)
				}
				tn.totalLatency += uint64(done - start)
				s.engines[gpu].At(done+computeGap, step)
			}
			s.engines[gpu].At(s.engines[gpu].Now()+computeGap, step)
		}
	}
	co.Drain()
}

// Run executes the scenario and returns its deterministic result.
func (s *Scenario) Run() (*Result, error) {
	co := sim.NewCoordinator(s.engines, s.cfg.Workers)
	var actions []barrierAction
	for epoch := 0; epoch < s.cfg.Epochs; epoch++ {
		s.runEpochStreams(co)
		// Barrier: apply logs in fixed GPU order, then charge the
		// decided transfers and re-drain so DMA completions settle
		// before the next epoch's streams start.
		actions = actions[:0]
		for g := range s.logs {
			actions = s.ctl.Apply(g, uint64(epoch), s.logs[g], actions)
			s.logs[g] = s.logs[g][:0]
		}
		for _, a := range actions {
			// Replica and promotion fills arrive over the target GPU's
			// CXL port; a demotion rode the port the other way first.
			link := s.links[a.gpu].cxl
			if a.demoted {
				link.Transfer(interconnect.DeviceToHost, memunits.BlockSize, nil)
			}
			link.Transfer(interconnect.HostToDevice, memunits.BlockSize, nil)
		}
		if len(actions) > 0 {
			co.Drain()
		}
		if err := s.ctl.check(); err != nil {
			return nil, err
		}
	}
	// Every engine has drained: its storage goes on to later runs.
	for _, e := range s.engines {
		e.Recycle()
	}
	return s.result(), nil
}

// fairness is Jain's index over per-tenant service rates (inverse mean
// access latency): 1.0 when every tenant sees equal service, 1/n when
// one tenant monopolizes.
func (s *Scenario) fairness() float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range s.tenants {
		if t.accesses == 0 {
			continue
		}
		x := float64(t.accesses) / float64(t.totalLatency+1)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// result assembles the Result including the run checksum.
func (s *Scenario) result() *Result {
	r := &Result{
		// Every drain leaves all engine clocks on its barrier.
		SimCycles:     uint64(s.engines[0].Now()),
		Fairness:      s.fairness(),
		Replications:  s.ctl.Replications,
		Promotions:    s.ctl.Promotions,
		Demotions:     s.ctl.Demotions,
		Invalidations: s.ctl.Invalidations,
		Evictions:     s.ctl.Evictions,
	}
	for _, t := range s.tenants {
		tr := TenantResult{
			Workload:     t.spec.Workload,
			GPU:          t.spec.GPU,
			Priority:     t.spec.Priority,
			Accesses:     t.accesses,
			LocalHits:    t.localHits,
			PoolAccesses: t.poolAccesses,
			CrossAccess:  t.crossAccess,
			PeakPages:    s.ctl.Accounts(t.spec.GPU).Peak(t.id),
			EvictedPages: s.ctl.Accounts(t.spec.GPU).Evicted(t.id),
		}
		if t.accesses > 0 {
			tr.AvgLatency = float64(t.totalLatency) / float64(t.accesses)
		}
		r.Tenants = append(r.Tenants, tr)
	}
	r.Checksum = r.checksum()
	return r
}

// checksum folds every deterministic field into one FNV-64a digest —
// the byte-reproducibility witness the property tests and the CI
// co-location smoke compare.
func (r *Result) checksum() uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	w(r.SimCycles)
	w(r.Replications)
	w(r.Promotions)
	w(r.Demotions)
	w(r.Invalidations)
	w(r.Evictions)
	for _, t := range r.Tenants {
		w(t.Accesses)
		w(t.LocalHits)
		w(t.PoolAccesses)
		w(t.CrossAccess)
		w(t.PeakPages)
		w(t.EvictedPages)
	}
	return h.Sum64()
}

// ParseTenants parses a CLI tenant list: comma-separated
// "workload:gpu[:priority]" entries, e.g. "bfs:0:1,sssp:0:0".
func ParseTenants(spec string, gpus int) ([]TenantSpec, error) {
	if spec == "" {
		return nil, fmt.Errorf("cxl: empty tenant spec")
	}
	var out []TenantSpec
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(field, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("cxl: tenant %q: want workload:gpu[:priority]", field)
		}
		t := TenantSpec{Workload: parts[0]}
		if _, ok := workloads.Get(t.Workload); !ok {
			return nil, fmt.Errorf("cxl: unknown workload %q (want one of %v)", t.Workload, workloads.Names())
		}
		g, err := parseInt(parts[1])
		if err != nil || g < 0 || g >= gpus {
			return nil, fmt.Errorf("cxl: tenant %q: bad GPU %q (0..%d)", field, parts[1], gpus-1)
		}
		t.GPU = g
		if len(parts) == 3 {
			p, err := parseInt(parts[2])
			if err != nil {
				return nil, fmt.Errorf("cxl: tenant %q: bad priority %q", field, parts[2])
			}
			t.Priority = p
		}
		out = append(out, t)
	}
	return out, nil
}

func parseInt(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("not a number")
		}
		n = n*10 + int(s[i]-'0')
		if n > 1<<30 {
			return 0, fmt.Errorf("too large")
		}
	}
	return n, nil
}

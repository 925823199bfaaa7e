// Package cxl models a CXL-attached memory pool shared by multiple
// GPUs, with the page-controller semantics sketched in SNIPPETS.md's
// cxl_page_controller: per-GPU read/write access counters, read-only
// replication of read-hot blocks into GPU device memory with
// invalidation-on-write, and counter-arbitrated promotion of hot pooled
// blocks to the GPU that wins the agreement.
//
// The machine has one fixed shape: host, N GPUs, one pool. The
// Controller holds one devmem.Memory per GPU and one for the pool, and
// each GPU of a Scenario holds its two links directly: a PCIe link (the
// path to a block promoted into another GPU) and a CXL port into the
// pool. On top of the controller, a Scenario runs multiple tenants
// (catalog workloads) sharing GPU device memory with per-tenant page
// accounting, priority-aware eviction and a fairness metric, its
// per-GPU engines drained by the PDES coordinator (sim.Coordinator),
// byte-identically for every worker count.
//
// The pool operates at the driver's 64KB basic-block granularity.
// Controller state is mutated only at epoch barriers, in fixed GPU
// order; during an epoch every GPU reads a frozen view and appends to
// its private request log, which is what makes the parallel execution
// race-free and byte-identical to the one-worker one.
package cxl

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/counters"
	"uvmsim/internal/devmem"
	"uvmsim/internal/memunits"
	"uvmsim/internal/mm"
)

// NoGPU marks a block as pool-resident (not promoted to any GPU).
const NoGPU = -1

// blockMeta is the controller's per-block state.
type blockMeta struct {
	// home is NoGPU while the block lives in the pool, else the dense
	// id of the GPU holding it exclusively.
	home int
	// replicas is the bitmask of GPUs holding a read-only replica.
	// Non-zero only while home == NoGPU: promotion invalidates.
	replicas uint64
	// lastEpoch stamps the last epoch the block was touched (victim
	// recency for priority-aware eviction).
	lastEpoch uint64
}

// resEntry is one frame of a GPU's device tier as the controller sees
// it: a promoted block or a replica, charged to a tenant.
type resEntry struct {
	block   uint64
	tenant  devmem.TenantID
	replica bool
}

// Controller owns the pooled tier: block residency and replica state,
// the per-GPU counter file, the per-GPU device-tier frame pools with
// tenant accounting, and the pluggable arbitration policy.
type Controller struct {
	gpus   int
	blocks uint64
	meta   []blockMeta
	ctrs   *counters.PerGPU
	policy mm.PoolPolicy

	pool     *devmem.Memory     // the pooled tier's frames
	devices  []*devmem.Memory   // per GPU: device-tier frames
	accounts []*devmem.Accounts // per GPU
	resident [][]resEntry       // per GPU, unordered; scanned for victims
	// prio maps tenant id -> priority (higher = protected).
	prio []int

	// Stats (monotonic, deterministic).
	Replications  uint64 // read-only replicas granted
	Promotions    uint64 // exclusive migrations to a GPU
	Demotions     uint64 // promoted blocks pushed back to the pool
	Invalidations uint64 // replicas dropped by a write
	Evictions     uint64 // frames reclaimed by capacity pressure
}

// NewController builds a controller for gpus GPUs over blocks pool
// blocks, with per-GPU device tiers of devBlocks frames each. prio
// maps tenant ids to priorities. The pool holds at least
// cfg.CXLPoolBytes.
func NewController(cfg config.Config, gpus int, blocks, devBlocks uint64, prio []int) *Controller {
	if gpus < 1 || gpus > 64 {
		panic(fmt.Sprintf("cxl: %d GPUs (replica mask is 64 bits)", gpus))
	}
	if blocks == 0 || devBlocks == 0 {
		panic("cxl: zero pool or device capacity")
	}
	poolBytes := blocks * memunits.BlockSize
	if cfg.CXLPoolBytes > poolBytes {
		poolBytes = cfg.CXLPoolBytes
	}
	pol, err := mm.NewPoolPolicy(cfg.PoolPolicy, cfg)
	if err != nil {
		panic(fmt.Sprintf("cxl: %v", err))
	}
	c := &Controller{
		gpus:     gpus,
		blocks:   blocks,
		meta:     make([]blockMeta, blocks),
		ctrs:     counters.NewPerGPU(gpus),
		policy:   pol,
		pool:     devmem.New(poolBytes),
		devices:  make([]*devmem.Memory, gpus),
		accounts: make([]*devmem.Accounts, gpus),
		resident: make([][]resEntry, gpus),
		prio:     append([]int(nil), prio...),
	}
	for i := range c.meta {
		c.meta[i].home = NoGPU
	}
	// Every block starts pool-resident.
	c.pool.Allocate(blocks * memunits.PagesPerBlock)
	for g := 0; g < gpus; g++ {
		c.devices[g] = devmem.New(devBlocks * memunits.BlockSize)
		c.accounts[g] = devmem.NewAccounts(len(prio))
	}
	return c
}

// Counters exposes the per-GPU counter file.
func (c *Controller) Counters() *counters.PerGPU { return c.ctrs }

// Accounts returns GPU g's per-tenant page accounting.
func (c *Controller) Accounts(g int) *devmem.Accounts { return c.accounts[g] }

// Policy returns the arbitration policy in use.
func (c *Controller) Policy() mm.PoolPolicy { return c.policy }

// Home returns where the block lives: NoGPU for the pool, else the GPU.
func (c *Controller) Home(block uint64) int { return c.meta[block].home }

// Replicated reports whether the GPU holds a read-only replica.
//
//sim:hotpath
func (c *Controller) Replicated(block uint64, gpu int) bool {
	return c.meta[block].replicas&(1<<uint(gpu)) != 0
}

// request is one logged access, applied at the epoch barrier.
type request struct {
	block  uint64
	tenant devmem.TenantID
	write  bool
}

// barrierAction is what Apply decided for one request — the transfer
// the scenario must charge to a link at the barrier.
type barrierAction struct {
	gpu     int
	block   uint64
	kind    mm.PoolDecision // PoolReplicate or PoolPromote
	demoted bool            // a victim demotion rode along (extra D2H)
}

// Apply processes one GPU's epoch request log at the barrier: bumps the
// per-GPU counters, enforces invalidation-on-write, consults the policy
// and executes its decisions against the frame pools. It returns the
// resulting transfer actions for the scenario to charge. Apply must be
// called between drain rounds, in fixed GPU order — it is the only
// mutation point of controller state.
func (c *Controller) Apply(gpu int, epoch uint64, reqs []request, actions []barrierAction) []barrierAction {
	for _, r := range reqs {
		m := &c.meta[r.block]
		m.lastEpoch = epoch
		if r.write {
			c.ctrs.NoteWrite(r.block, gpu)
			// A write invalidates every read-only replica wherever it
			// is served from (pool write-through or remote store into a
			// promoted block).
			if m.replicas != 0 {
				c.invalidate(r.block)
			}
		} else {
			c.ctrs.NoteRead(r.block, gpu)
		}
		if m.home != NoGPU {
			// Promoted blocks are out of the pool; the policy only
			// arbitrates pool-resident blocks. (A promoted block
			// returns via eviction-demotion.)
			continue
		}
		d := c.policy.Decide(mm.PoolAccess{
			Block: r.block, GPU: gpu, Write: r.write,
			Replicated: c.Replicated(r.block, gpu),
		}, c.ctrs)
		switch d {
		case mm.PoolRemote:
		case mm.PoolReplicate:
			if c.Replicated(r.block, gpu) {
				break // already holding one
			}
			demoted := c.takeFrame(gpu, resEntry{block: r.block, tenant: r.tenant, replica: true})
			m.replicas |= 1 << uint(gpu)
			c.Replications++
			actions = append(actions, barrierAction{gpu: gpu, block: r.block, kind: mm.PoolReplicate, demoted: demoted})
		case mm.PoolPromote:
			// Promotion invalidates replicas everywhere and moves the
			// block out of the pool into the winner's tier.
			if m.replicas != 0 {
				c.invalidate(r.block)
			}
			demoted := c.takeFrame(gpu, resEntry{block: r.block, tenant: r.tenant})
			m.home = gpu
			c.pool.Release(memunits.PagesPerBlock)
			c.Promotions++
			actions = append(actions, barrierAction{gpu: gpu, block: r.block, kind: mm.PoolPromote, demoted: demoted})
		}
	}
	return actions
}

// invalidate drops every replica of the block, releasing the frames.
func (c *Controller) invalidate(block uint64) {
	m := &c.meta[block]
	for g := 0; g < c.gpus; g++ {
		if m.replicas&(1<<uint(g)) == 0 {
			continue
		}
		c.dropEntry(g, block, true)
		c.Invalidations++
	}
	m.replicas = 0
}

// takeFrame charges one device-tier frame on the GPU to the entry's
// tenant, evicting victims first when the tier is full. It reports
// whether a promoted block was demoted to make room (an extra
// device-to-pool transfer the barrier must charge).
func (c *Controller) takeFrame(gpu int, e resEntry) (demoted bool) {
	dev := c.devices[gpu]
	for !dev.CanAllocate(memunits.PagesPerBlock) {
		if c.evictVictim(gpu) {
			demoted = true
		}
	}
	dev.Allocate(memunits.PagesPerBlock)
	c.accounts[gpu].Charge(e.tenant, memunits.PagesPerBlock)
	c.resident[gpu] = append(c.resident[gpu], e)
	return demoted
}

// evictVictim reclaims one frame on the GPU, priority-aware: the victim
// is the entry whose tenant has the lowest priority, breaking ties by
// oldest last-touch epoch, then lowest block number — a deterministic
// total order. Replica victims just drop; promoted victims demote back
// to the pool (the caller charges the transfer). Reports whether the
// victim was a promoted block.
func (c *Controller) evictVictim(gpu int) (wasPromoted bool) {
	res := c.resident[gpu]
	if len(res) == 0 {
		panic(fmt.Sprintf("cxl: gpu%d device tier full with no resident entries", gpu))
	}
	best := 0
	for i := 1; i < len(res); i++ {
		bi, bb := res[i], res[best]
		pi, pb := c.prio[bi.tenant], c.prio[bb.tenant]
		li, lb := c.meta[bi.block].lastEpoch, c.meta[bb.block].lastEpoch
		if pi < pb || (pi == pb && (li < lb || (li == lb && bi.block < bb.block))) {
			best = i
		}
	}
	v := res[best]
	c.Evictions++
	if v.replica {
		c.meta[v.block].replicas &^= 1 << uint(gpu)
		c.removeEntry(gpu, best)
		c.releaseFrame(gpu, v.tenant)
		return false
	}
	// Demote the promoted block back to the pool.
	c.meta[v.block].home = NoGPU
	c.pool.Allocate(memunits.PagesPerBlock)
	c.Demotions++
	c.removeEntry(gpu, best)
	c.releaseFrame(gpu, v.tenant)
	return true
}

// dropEntry removes the GPU's entry for the block (replica match only
// when replica is set) and releases its frame.
func (c *Controller) dropEntry(gpu int, block uint64, replica bool) {
	res := c.resident[gpu]
	for i := range res {
		if res[i].block == block && res[i].replica == replica {
			t := res[i].tenant
			c.removeEntry(gpu, i)
			c.releaseFrame(gpu, t)
			return
		}
	}
	panic(fmt.Sprintf("cxl: gpu%d has no entry for block %d (replica=%v)", gpu, block, replica))
}

// removeEntry deletes index i from the GPU's resident list, preserving
// order so victim scans stay deterministic.
func (c *Controller) removeEntry(gpu, i int) {
	res := c.resident[gpu]
	c.resident[gpu] = append(res[:i], res[i+1:]...)
}

func (c *Controller) releaseFrame(gpu int, t devmem.TenantID) {
	c.devices[gpu].Release(memunits.PagesPerBlock)
	c.accounts[gpu].Release(t, memunits.PagesPerBlock, true)
}

// check validates frame accounting against the meta table; the
// scenario calls it at barriers when invariants are enabled.
func (c *Controller) check() error {
	var promoted uint64
	perGPU := make([]uint64, c.gpus)
	for b := range c.meta {
		m := &c.meta[b]
		if m.home != NoGPU {
			if m.replicas != 0 {
				return fmt.Errorf("cxl: block %d promoted with live replicas", b)
			}
			promoted++
			perGPU[m.home]++
		}
		for g := 0; g < c.gpus; g++ {
			if m.replicas&(1<<uint(g)) != 0 {
				perGPU[g]++
			}
		}
	}
	poolPages := (c.blocks - promoted) * memunits.PagesPerBlock
	if got := c.pool.AllocatedPages(); got != poolPages {
		return fmt.Errorf("cxl: pool accounts %d pages, meta says %d", got, poolPages)
	}
	for g := 0; g < c.gpus; g++ {
		want := perGPU[g] * memunits.PagesPerBlock
		if got := c.devices[g].AllocatedPages(); got != want {
			return fmt.Errorf("cxl: gpu%d accounts %d pages, meta says %d", g, got, want)
		}
		if got := uint64(len(c.resident[g])); got != perGPU[g] {
			return fmt.Errorf("cxl: gpu%d resident list %d entries, meta says %d", g, got, perGPU[g])
		}
	}
	return nil
}

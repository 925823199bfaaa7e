package devmem

import "fmt"

// TenantID identifies one co-scheduled tenant. IDs are dense and
// assigned in tenant declaration order, so per-tenant state lives in
// slices and every iteration over tenants is deterministic.
type TenantID int

// Accounts tracks per-tenant resident pages on one tier — the
// accounting substrate for co-location: priority-aware eviction reads
// it to find the over-quota tenant, and the fairness metric reads the
// peaks. Charges must balance: releasing more than a tenant holds is a
// model bug and panics, exactly like Memory.Release.
type Accounts struct {
	resident []uint64
	peak     []uint64
	evicted  []uint64 // pages taken from the tenant by eviction
}

// NewAccounts creates accounting for n tenants.
func NewAccounts(n int) *Accounts {
	if n <= 0 {
		panic(fmt.Sprintf("devmem: %d tenants", n))
	}
	return &Accounts{
		resident: make([]uint64, n),
		peak:     make([]uint64, n),
		evicted:  make([]uint64, n),
	}
}

// Charge records n pages becoming resident on behalf of the tenant.
func (a *Accounts) Charge(id TenantID, n uint64) {
	a.resident[id] += n
	if a.resident[id] > a.peak[id] {
		a.peak[id] = a.resident[id]
	}
}

// Release returns n of the tenant's pages. evicted marks the release as
// involuntary (taken by the eviction engine rather than freed by the
// tenant), which feeds the fairness accounting.
func (a *Accounts) Release(id TenantID, n uint64, evicted bool) {
	if n > a.resident[id] {
		panic(fmt.Sprintf("devmem: tenant %d releasing %d pages with only %d resident", id, n, a.resident[id]))
	}
	a.resident[id] -= n
	if evicted {
		a.evicted[id] += n
	}
}

// Peak returns the tenant's resident-page high-water mark.
func (a *Accounts) Peak(id TenantID) uint64 { return a.peak[id] }

// Evicted returns the pages eviction has taken from the tenant.
func (a *Accounts) Evicted(id TenantID) uint64 { return a.evicted[id] }

package mm

import (
	"uvmsim/internal/config"
	"uvmsim/internal/memunits"
)

// batcherNames is the fixed, sorted set of FaultBatcher names.
var batcherNames = []string{"accumulate"}

// NewBatcher builds the named FaultBatcher ("" = accumulate).
func NewBatcher(name string, _ config.Config) (FaultBatcher, error) {
	switch canon(name) {
	case "", "accumulate":
		return &accumBatcher{}, nil
	}
	return nil, unknown("fault batcher", name, batcherNames)
}

// accumBatcher is the fault batcher: a plain accumulator with a spare
// buffer swapped in at Close so the batch never reallocates in steady
// state. It relies on the driver's merge-on-pending semantics for
// uniqueness: a block only ever faults once per round because later
// accesses join its waiter list instead of re-faulting
// (TestDriverNeverRefaultsPendingBlock in internal/uvm holds the driver
// to that).
type accumBatcher struct {
	batch, spare []memunits.BlockNum
	open         bool
}

// Add appends the fault; the first Add of a round opens the batch.
func (a *accumBatcher) Add(b memunits.BlockNum) (opened bool) {
	opened = !a.open
	a.open = true
	a.batch = append(a.batch, b)
	return opened
}

// Close swaps in the spare buffer and returns the accumulated batch.
func (a *accumBatcher) Close() []memunits.BlockNum {
	batch := a.batch
	a.batch, a.spare = a.spare[:0], batch
	a.open = false
	return batch
}

// Open reports whether a batch is accumulating.
func (a *accumBatcher) Open() bool { return a.open }

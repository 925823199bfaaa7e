package obs

import "fmt"

// Violation is a failed invariant check, stamped with the simulation
// cycle at which it was detected.
type Violation struct {
	Cycle uint64
	Check string
	Err   error
}

// Error renders the cycle-stamped diagnostic.
func (v *Violation) Error() string {
	return fmt.Sprintf("obs: invariant %q violated at cycle %d: %v", v.Check, v.Cycle, v.Err)
}

// Unwrap exposes the underlying check error.
func (v *Violation) Unwrap() error { return v.Err }

// Checker runs a set of named invariant checks. Checks are executed in
// registration order and the first failure wins, so diagnostics are
// deterministic.
type Checker struct {
	checks []namedCheck
}

type namedCheck struct {
	name string
	fn   func() error
}

// Add registers a check. fn returns nil when the invariant holds.
func (c *Checker) Add(name string, fn func() error) {
	if fn == nil {
		panic("obs: nil check")
	}
	c.checks = append(c.checks, namedCheck{name: name, fn: fn})
}

// AddMonotonic registers a check that the named series never decreases
// between sweeps. get is sampled at every RunAll.
func (c *Checker) AddMonotonic(name string, get func() uint64) {
	var prev uint64
	c.Add(name, func() error {
		cur := get()
		if cur < prev {
			return fmt.Errorf("value decreased from %d to %d", prev, cur)
		}
		prev = cur
		return nil
	})
}

// RunAll executes every check and returns the first *Violation stamped
// with now, or nil when all invariants hold.
func (c *Checker) RunAll(now uint64) error {
	for _, nc := range c.checks {
		if err := nc.fn(); err != nil {
			return &Violation{Cycle: now, Check: nc.name, Err: err}
		}
	}
	return nil
}

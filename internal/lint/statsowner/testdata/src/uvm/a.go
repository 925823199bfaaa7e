// Fixture uvm package: owns the fault counters, nothing else.
package uvm

import "stats"

func handleFault(c *stats.Counters) {
	c.FarFaults++ // uvm owns FarFaults
	c.Cycles++    // want `owned by \[core\]`
	c.Instructions += 2 // want `owned by \[gpu\]`
	c.Bogus = 1   // want `no declared owner`
}

func suppressed(c *stats.Counters) {
	c.Cycles++ //simlint:allow statsowner -- fixture: suppression must silence the finding
}

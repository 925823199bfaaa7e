// Package floathelp holds float accumulators in a different fixture
// package from the loops that call them: the accumulation hides behind
// a call, and maporder still flags the loop.
package floathelp

// Total is a package-level accumulator; Record adds into it.
var Total float64

// AddTo accumulates into the caller's accumulator through a pointer.
func AddTo(p *float64, v float64) { *p += v }

// Record accumulates into package state.
func Record(v float64) { Total += v }

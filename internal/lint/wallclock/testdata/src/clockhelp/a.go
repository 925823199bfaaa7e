// Package clockhelp reads the wall clock behind helper calls in a
// different fixture package from its callers in cmdfix.
package clockhelp

import "time"

// Stamp returns a wall-clock reading.
func Stamp() int64 { return time.Now().UnixNano() } // want `time\.Now reads the wall clock`

// Elapsed measures a wall-clock duration.
func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) } // want `time\.Since reads the wall clock`

// ElapsedNs adds one more call to the chain.
func ElapsedNs(t0 time.Time) int64 { return int64(Elapsed(t0)) }

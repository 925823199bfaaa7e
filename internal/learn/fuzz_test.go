// Fuzz harness for the reuse-distance estimator, in an external test
// package so the seed corpus can be captured from real simulator fault
// traces (importing internal/core from package learn would be a cycle:
// core -> mm -> learn).
package learn_test

import (
	"encoding/binary"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/learn"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/uvm"
	"uvmsim/internal/workloads"
)

// faultTrace captures the far-fault block sequence of a small run of
// the named workload — the exact stream the reuse-dist planner feeds
// the estimator in production — encoded as little-endian uint16 block
// numbers for the fuzz corpus.
func faultTrace(name string, scale float64) []byte {
	b := workloads.MustGet(name)(scale)
	s := core.New(b, core.DeriveConfig(b, 1, 125, config.PolicyAdaptive, config.Default()))
	var buf []byte
	s.SetObserver(func(_ sim.Cycle, addr memunits.Addr, _ bool, kind uvm.AccessKind) {
		if kind != uvm.AccessFault {
			return
		}
		var enc [2]byte
		binary.LittleEndian.PutUint16(enc[:], uint16(memunits.BlockOf(addr)))
		buf = append(buf, enc[:]...)
	})
	s.Run()
	return buf
}

// FuzzReuseEstimatorMatchesOracle checks the bounded ring against a
// brute-force full-history oracle. The estimator's contract is defined
// by the touch history alone: the previous touch of a block is visible
// if and only if it lies within the last capacity touches, and the reported
// distance is the touch count since it (so dist is in [1, capacity]). The
// oracle keeps the entire history and searches it newest-to-oldest, so
// any ring bug — wraparound off-by-one, phantom zero-value hits, stale
// slot reuse — shows up as a divergence.
func FuzzReuseEstimatorMatchesOracle(f *testing.F) {
	for _, w := range []string{"bfs", "ra"} {
		tr := faultTrace(w, 0.02)
		if len(tr) > 4096 {
			tr = tr[:4096]
		}
		if len(tr) == 0 {
			f.Fatalf("workload %s produced no fault trace; corpus would be empty", w)
		}
		f.Add(uint8(8), tr)
		f.Add(uint8(64), tr)
	}
	// Hand-written adversarial seeds: capacity 1, block 0 (the ring's
	// zero value), and an immediate-repeat pattern.
	f.Add(uint8(0), []byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(1), []byte{7, 0, 7, 0, 7, 0})

	f.Fuzz(func(t *testing.T, capByte uint8, data []byte) {
		capacity := int(capByte)%64 + 1
		est := learn.NewReuseEstimator(capacity)
		var history []uint64
		for i := 0; i+1 < len(data); i += 2 {
			b := uint64(binary.LittleEndian.Uint16(data[i : i+2]))
			gotDist, gotOK := est.Touch(b)

			var wantDist uint64
			wantOK := false
			for prev := len(history) - 1; prev >= 0; prev-- {
				if history[prev] == b {
					d := uint64(len(history) - prev)
					if d <= uint64(capacity) {
						wantDist, wantOK = d, true
					}
					break
				}
			}
			if gotDist != wantDist || gotOK != wantOK {
				t.Fatalf("touch %d of block %d (cap %d): ring says (%d,%t), oracle says (%d,%t)",
					len(history), b, capacity, gotDist, gotOK, wantDist, wantOK)
			}
			history = append(history, b)
		}
	})
}

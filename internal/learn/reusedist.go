package learn

// ReuseEstimator estimates per-block reuse distances from a touch
// stream using a bounded ring of the most recent touches. It is
// allocation-free after construction: recording a touch writes one ring
// slot and scans at most capacity ring entries.
//
// The estimate is the touch-interval form of reuse distance: the number
// of touches recorded since the previous touch of the same block. It is
// defined purely by the touch history, independent of the ring
// implementation — the previous touch is visible if and only if it lies
// within the last capacity touches — which is what lets the fuzz harness
// check the ring against a brute-force full-history oracle
// (FuzzReuseEstimatorMatchesOracle).
//
// The miss-driven planners feed this with non-resident block accesses
// only, so a short distance means "this block keeps missing": exactly
// the population worth migrating, while blocks whose reuse distance
// exceeds the window are cheaper to serve remotely than to thrash.
type ReuseEstimator struct {
	ring []uint64
	tick uint64 // touches recorded so far; ring[t % capacity] holds touch t
}

// NewReuseEstimator returns an estimator remembering the last capacity
// touches. It panics when capacity is not positive.
func NewReuseEstimator(capacity int) *ReuseEstimator {
	if capacity <= 0 {
		panic("learn: reuse estimator capacity must be positive")
	}
	return &ReuseEstimator{ring: make([]uint64, capacity)}
}

// Touch records a touch of block b and returns the block's reuse
// distance: the number of touches since its previous touch, when that
// previous touch is among the last capacity touches (so dist is in
// [1, capacity]). ok is false when b was not touched within the window — a
// cold block, or one whose reuse distance exceeds the window.
func (e *ReuseEstimator) Touch(b uint64) (dist uint64, ok bool) {
	n := e.tick
	lo := uint64(0)
	if c := uint64(len(e.ring)); n > c {
		lo = n - c
	}
	// Scan newest to oldest so the nearest previous occurrence wins.
	for t := n; t > lo; t-- {
		if e.ring[(t-1)%uint64(len(e.ring))] == b {
			dist, ok = n-(t-1), true
			break
		}
	}
	e.ring[n%uint64(len(e.ring))] = b
	e.tick = n + 1
	return dist, ok
}

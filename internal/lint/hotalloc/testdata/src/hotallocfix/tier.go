// Tier-indexed residency fixture: multi-tier hot paths (residency
// tests, replica-bitmask updates, per-tier counter bumps) are pure
// integer work, and the analyzer must keep them that way — a
// per-access allocation on the residency path would dominate the
// simulated fault handling it models.
package hotallocfix

// tierIndex is a dense tier number: 0 = host, so the zero value of
// home means "not resident on any device tier".
type tierIndex uint8

type tieredBlock struct {
	home     tierIndex
	replicas uint64 // bitmask, one bit per GPU
}

type tierState struct {
	blocks []tieredBlock
	perGPU []uint32 // block*gpus + gpu counter file
	gpus   int
	names  []string
}

// resident is the tier-indexed replacement for the old boolean flag:
// a comparison, never a lookup that could allocate.
//
//sim:hotpath
func (s *tierState) resident(b uint64) bool {
	return s.blocks[b].home != 0
}

// replicate sets the GPU's replica bit — pure bit arithmetic.
//
//sim:hotpath
func (s *tierState) replicate(b uint64, gpu int) {
	s.blocks[b].replicas |= 1 << uint(gpu)
}

// invalidate clears every replica on a write, returning the dropped
// mask so the caller can charge invalidation transfers.
//
//sim:hotpath
func (s *tierState) invalidate(b uint64) uint64 {
	m := s.blocks[b].replicas
	s.blocks[b].replicas = 0
	return m
}

// noteAccess bumps the flat per-GPU counter — index arithmetic only.
//
//sim:hotpath
func (s *tierState) noteAccess(b uint64, gpu int) {
	s.perGPU[int(b)*s.gpus+gpu]++
}

//sim:hotpath
func (s *tierState) badPerTierScratch(n int) []tieredBlock {
	return make([]tieredBlock, n) // want `make in hot path badPerTierScratch`
}

//sim:hotpath
func (s *tierState) badTierLabel(b uint64) string {
	return "tier:" + s.names[s.blocks[b].home] // want `string concatenation in hot path badTierLabel`
}

// grow doubles the residency arrays; the allocation is amortized and
// explicitly waived, matching the counters.PerGPU grow path.
//
//sim:hotpath
func (s *tierState) grow(n int) {
	//simlint:allow hotalloc -- doubling grow path runs O(log n) times, amortized free
	blocks := make([]tieredBlock, n)
	copy(blocks, s.blocks)
	s.blocks = blocks
}

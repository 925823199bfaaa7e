// Fixture for maporder: slices built in map-iteration order and handed
// on, to a result writer or to every caller through a return.
package resultorder

import "sort"

// Suite mimics a benchmark-suite document.
type Suite struct{ Keys []int }

// writeSuite mimics a result writer.
func writeSuite(s Suite) {}

// toWriter: map order reaches a result document.
func toWriter(m map[int]int) {
	ks := make([]int, 0, len(m))
	for k := range m { // want `map iteration order is nondeterministic`
		ks = append(ks, k)
	}
	writeSuite(Suite{Keys: ks})
}

// Keys exports the map's iteration order to every caller.
func Keys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want `map iteration order is nondeterministic`
		out = append(out, k)
	}
	return out
}

// Values appends under a condition; the order escapes all the same.
func Values(m map[string]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k, v := range m { // want `map iteration order is nondeterministic`
		if k != "" {
			out = append(out, v)
		}
	}
	return out
}

// clean: collect-then-sort before the writer sees the keys.
func sortedToWriter(m map[int]int) {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	writeSuite(Suite{Keys: ks})
}

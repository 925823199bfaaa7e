// Fixture for maporder: float accumulation under an unordered loop.
// Float addition is not associative, so each sum below drifts with
// the map's iteration order or the channel's receive order; the
// finding sits on the loop, however deep the accumulation hides.
package floatorder

import (
	"slices"

	"floathelp"
)

type acc struct{ total float64 }

func (a *acc) add(v float64) { a.total += v }

// direct: float compound-assign in a map-range loop.
func direct(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is nondeterministic`
		sum += v
	}
	return sum
}

// assignForm: the spelled-out x = x + v shape.
func assignForm(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want `map iteration order is nondeterministic`
		sum = sum + v
	}
	return sum
}

// keyed: the value read back through the key.
func keyed(m map[int]float64) float64 {
	var sum float64
	for k := range m { // want `map iteration order is nondeterministic`
		sum += m[k]
	}
	return sum
}

// weighted: the accumulation sits under a condition.
func weighted(m map[string]float64) float64 {
	var total float64
	for k, v := range m { // want `map iteration order is nondeterministic`
		if k > "a" {
			total += v
		}
	}
	return total
}

// fromChannel: receive order across senders is scheduling-dependent.
func fromChannel(ch chan float64) float64 {
	var sum float64
	for v := range ch { // want `channel receive order is nondeterministic`
		sum += v
	}
	return sum
}

// viaMethod: the accumulation hides behind a pointer-receiver method.
func viaMethod(m map[string]float64) float64 {
	var a acc
	for _, v := range m { // want `map iteration order is nondeterministic`
		a.add(v)
	}
	return a.total
}

// crossPackage: the accumulator helper lives in floathelp.
func crossPackage(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is nondeterministic`
		floathelp.AddTo(&sum, v)
	}
	return sum
}

// addBoth wraps AddTo; chained hides the accumulation two calls deep.
func addBoth(p *float64, v float64) { floathelp.AddTo(p, v) }

func chained(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is nondeterministic`
		addBoth(&sum, v)
	}
	return sum
}

// globalSink: package-level accumulation in another package.
func globalSink(m map[string]float64) {
	for _, v := range m { // want `map iteration order is nondeterministic`
		floathelp.Record(v)
	}
}

// clean: integer accumulation commutes exactly, over a map or a channel.
func intSum(m map[string]int, ch <-chan int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	for v := range ch {
		total += v
	}
	return total
}

// clean: values received, then sorted before use.
func sortedFromChannel(ch <-chan float64) []float64 {
	var vs []float64
	for v := range ch {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// clean: slice iteration is ordered.
func sliceSum(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum
}

//go:build !race

package workloads

// raceEnabled reports a race-detector build.
const raceEnabled = false

//go:build race

package gpu

// raceEnabled reports a race-detector build.
const raceEnabled = true

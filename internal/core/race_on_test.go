//go:build race

package core

// raceEnabled reports a race-detector build.
const raceEnabled = true

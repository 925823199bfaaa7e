package maporder_test

import (
	"testing"

	"uvmsim/internal/lint/linttest"
	"uvmsim/internal/lint/maporder"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, maporder.Analyzer, "maporderfix", "resultorder")
}

// TestFloatAccumulation covers float sums whose rounding follows the
// order of a map range or a channel receive: each is flagged at the loop.
func TestFloatAccumulation(t *testing.T) {
	linttest.Run(t, maporder.Analyzer, "floatorder")
}

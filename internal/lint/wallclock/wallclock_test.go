package wallclock_test

import (
	"testing"

	"uvmsim/internal/lint/linttest"
	"uvmsim/internal/lint/wallclock"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, wallclock.Analyzer, "internal/wallclockfix", "uvmsim/bench")
}

// TestClockIntoResults covers a CLI whose clock reads and global-rand
// draws reach a result writer or a cache key, directly or through helper
// calls in another package: each is flagged at the read.
func TestClockIntoResults(t *testing.T) {
	linttest.Run(t, wallclock.Analyzer, "cmdfix", "clockhelp")
}

// Fixture for the wallclock analyzer: the uvmsim/bench module times
// real execution, so wall clocks and global rand are allowed here.
package bench

import (
	"math/rand"
	"time"
)

func timing() time.Duration {
	start := time.Now()
	_ = rand.Intn(4)
	return time.Since(start)
}

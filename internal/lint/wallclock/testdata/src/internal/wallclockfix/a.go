// Fixture for the wallclock analyzer: a simulator package under
// internal/.
package wallclockfix

import (
	"math/rand"
	"time"
)

func bad() {
	t := time.Now()    // want `time\.Now reads the wall clock`
	_ = time.Since(t)  // want `time\.Since reads the wall clock`
	_ = time.Until(t)  // want `time\.Until reads the wall clock`
	_ = rand.Intn(4)   // want `rand\.Intn draws from the global source`
	_ = rand.Float64() // want `rand\.Float64 draws from the global source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle draws from the global source`
}

func good() {
	r := rand.New(rand.NewSource(42))
	_ = r.Intn(4)
	_ = r.Float64()
	z := rand.NewZipf(r, 1.1, 1, 100)
	_ = z.Uint64()
	_ = time.Duration(5) * time.Millisecond
	_ = time.Unix(0, 0)
}

func suppressed() {
	//simlint:allow wallclock -- fixture: suppression must silence the finding
	_ = time.Now()
}

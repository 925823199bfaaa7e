// Fixture for the wallclock analyzer: a CLI outside internal/ is
// checked too. A clock read or a global-rand draw here is one
// assignment away from a result file or a cache key, so each finding
// sits on the read, whichever sink the value reaches.
package cmdfix

import (
	"math/rand"
	"time"

	"clockhelp"
)

// suite mimics a benchmark-suite document.
type suite struct {
	Cycles uint64
	WallNs int64
}

// writeValue and writeSuite mimic result writers.
func writeValue(v int64) {}
func writeSuite(s suite) {}

// cellKey mimics the content-addressed cache-key constructor.
func cellKey(parts ...int64) string { return "" }

func timing() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	_ = rand.Intn(4)         // want `rand\.Intn draws from the global source`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// direct: a wall-clock read passed straight to a result writer.
func direct() {
	writeValue(time.Now().UnixNano()) // want `time\.Now reads the wall clock`
}

// localHop: the read hides one call away; the finding is at the read.
func stamp() int64 { return time.Now().UnixNano() } // want `time\.Now reads the wall clock`

func localHop() {
	writeValue(stamp())
}

// crossPackage: the read lives in clockhelp, which is flagged there.
func crossPackage(t0 time.Time) {
	writeValue(clockhelp.Stamp())
	writeValue(clockhelp.ElapsedNs(t0))
}

// viaStruct: a duration stored in a result document.
func viaStruct(t0 time.Time) {
	el := time.Since(t0) // want `time\.Since reads the wall clock`
	writeSuite(suite{Cycles: 1, WallNs: int64(el)})
}

// randKey: the global rand source in a cache key.
func randKey() string {
	return cellKey(int64(rand.Intn(10))) // want `rand\.Intn draws from the global source`
}

// suppressed: a reason-carrying allow silences the finding.
func suppressed() {
	writeValue(time.Now().UnixNano()) //simlint:allow wallclock -- fixture: suppression must silence the finding
}

// clean: a seeded source replays identically.
func seeded() {
	r := rand.New(rand.NewSource(42))
	writeValue(int64(r.Intn(10)))
}

package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestEngineFootprintSlot guards the arena slot at 24 bytes: a
// two-word Handler (type and data pointer) and a chain link. The slot
// does not store its cycle; scanWheel derives it from the bucket index.
func TestEngineFootprintSlot(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
}

// TestEngineFootprintStruct guards the inline wheel: 1,024 buckets of
// 8 bytes plus the occupancy bitmap and bookkeeping stay within 9 KB, so
// the wheel stays in cache on every dispatch. The long delays are left
// to the overflow runs and heap rather than sized into the wheel.
func TestEngineFootprintStruct(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got > 9<<10 {
		t.Fatalf("Engine is %d bytes, above 9 KB", got)
	}
}

// engineSink keeps the measured engines on the heap, as the engines that
// drivers and GPUs hold are.
var engineSink *Engine

// TestEngineFootprintFirstEvent bounds what a fresh engine costs in
// total: allocating it, scheduling one event and running it stays under
// 16 KB, so a cluster node or a short-lived cell engine is cheap.
func TestEngineFootprintFirstEvent(t *testing.T) {
	fn := func() {}
	run := func() {
		engineSink = NewEngine()
		engineSink.After(1, fn)
		engineSink.Run()
	}
	run() // warm
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b >= 16<<10 {
		t.Fatalf("a new engine running one event allocated %d bytes, want under 16 KB", b)
	}
}

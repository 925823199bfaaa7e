package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestParallelOrderPreserved(t *testing.T) {
	jobs := make([]func() int, 100)
	for i := range jobs {
		i := i
		jobs[i] = func() int { return i * i }
	}
	got := Parallel(jobs, 8)
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelEmpty(t *testing.T) {
	if got := Parallel[int](nil, 4); len(got) != 0 {
		t.Fatalf("empty jobs returned %v", got)
	}
}

func TestParallelSingleWorker(t *testing.T) {
	var order []int
	jobs := make([]func() int, 10)
	for i := range jobs {
		i := i
		jobs[i] = func() int { order = append(order, i); return i }
	}
	Parallel(jobs, 1)
	for i, v := range order {
		if v != i {
			t.Fatal("single worker did not run sequentially")
		}
	}
}

func TestParallelActuallyConcurrent(t *testing.T) {
	var inFlight, peak int64
	jobs := make([]func() bool, 64)
	gate := make(chan struct{})
	for i := range jobs {
		i := i
		jobs[i] = func() bool {
			n := atomic.AddInt64(&inFlight, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			if i < 4 {
				<-gate // first few jobs block until others run
			}
			atomic.AddInt64(&inFlight, -1)
			return true
		}
	}
	done := make(chan struct{})
	go func() {
		Parallel(jobs, 8)
		close(done)
	}()
	// Unblock after the pool has had a chance to spread out.
	for atomic.LoadInt64(&peak) < 2 {
	}
	close(gate)
	<-done
	if atomic.LoadInt64(&peak) < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak)
	}
}

func TestParallelPanicsPropagate(t *testing.T) {
	jobs := []func() int{
		func() int { return 1 },
		func() int { panic("boom") },
		func() int { return 3 },
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Parallel(jobs, 2)
}

// TestParallelPanicNoDeadlock is the regression test for the abort
// path: panicking jobs scattered through a large sweep must neither
// deadlock the remaining workers nor hang Parallel itself.
func TestParallelPanicNoDeadlock(t *testing.T) {
	jobs := make([]func() int, 256)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			if i%32 == 5 {
				panic("boom")
			}
			return i
		}
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Parallel(jobs, 8)
	}()
	select {
	case r := <-done:
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Parallel deadlocked after a job panicked")
	}
}

// TestParallelPanicValueIdentity asserts the caller receives the
// original panic value, not a copy or wrapper.
func TestParallelPanicValueIdentity(t *testing.T) {
	val := errors.New("original panic value")
	defer func() {
		if r := recover(); r != error(val) {
			t.Fatalf("recovered %v (%T), want the original error value", r, r)
		}
	}()
	Parallel([]func() int{func() int { panic(val) }}, 2)
}

// TestParallelPanicAbortsClaiming pins the abort semantics: once every
// worker has hit a panic, no further jobs are claimed. Two workers run
// two jobs that rendezvous and then panic together; none of the
// remaining jobs may execute.
func TestParallelPanicAbortsClaiming(t *testing.T) {
	var executed int64
	var barrier sync.WaitGroup
	barrier.Add(2)
	rendezvousPanic := func() int {
		barrier.Done()
		barrier.Wait()
		panic("abort")
	}
	jobs := []func() int{rendezvousPanic, rendezvousPanic}
	for i := 0; i < 100; i++ {
		jobs = append(jobs, func() int {
			atomic.AddInt64(&executed, 1)
			return 0
		})
	}
	func() {
		defer func() {
			if r := recover(); r != "abort" {
				t.Fatalf("recovered %v, want abort", r)
			}
		}()
		Parallel(jobs, 2)
	}()
	if n := atomic.LoadInt64(&executed); n != 0 {
		t.Fatalf("%d jobs ran after every worker aborted, want 0", n)
	}
}

// Property: Parallel returns exactly the same results as sequential
// execution for pure jobs, regardless of worker count.
func TestParallelEquivalenceProperty(t *testing.T) {
	f := func(values []int32, workersRaw uint8) bool {
		workers := int(workersRaw)%8 + 1
		jobs := make([]func() int32, len(values))
		for i := range jobs {
			i := i
			jobs[i] = func() int32 { return values[i] * 3 }
		}
		got := Parallel(jobs, workers)
		for i := range values {
			if got[i] != values[i]*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

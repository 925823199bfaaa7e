package workloads

import (
	"sync"
	"sync/atomic"
	"testing"
)

// A build for one key must not block first requests for *different*
// keys: the memo serializes builds per key, not globally. The "slow"
// build parks on a channel that is only closed after the "fast" key's
// Get has returned, so under the old global-lock implementation this
// test deadlocks (and times out) instead of passing. Run under -race
// in CI.
func TestMemoDistinctKeysBuildConcurrently(t *testing.T) {
	m := NewMemo()
	release := make(chan struct{})
	slowEntered := make(chan struct{})
	m.build = func(name string, scale float64) *Built {
		if name == "slow" {
			close(slowEntered)
			<-release
		}
		return &Built{Name: name}
	}

	slowDone := make(chan *Built)
	go func() { slowDone <- m.Get("slow", 1.0) }()
	<-slowEntered // the slow build is in progress and holds no global lock

	if b := m.Get("fast", 1.0); b == nil || b.Name != "fast" {
		t.Fatalf("Get(fast) = %+v while another key was building", b)
	}
	close(release)
	if b := <-slowDone; b == nil || b.Name != "slow" {
		t.Fatalf("Get(slow) = %+v", b)
	}
	if n := len(m.m); n != 2 {
		t.Fatalf("memo holds %d builds, want 2", n)
	}
}

// Duplicate concurrent requests for the same key must still share one
// build: the per-key once admits exactly one builder.
func TestMemoConcurrentSameKeyBuildsOnce(t *testing.T) {
	m := NewMemo()
	var builds atomic.Int64
	gate := make(chan struct{})
	m.build = func(name string, scale float64) *Built {
		builds.Add(1)
		<-gate // hold the build so every waiter piles onto this key
		return &Built{Name: name}
	}

	const waiters = 8
	got := make([]*Built, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Get("bfs", 0.5)
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent Gets ran %d builds, want 1", waiters, n)
	}
	for i := 1; i < waiters; i++ {
		if got[i] != got[0] {
			t.Fatalf("concurrent Gets returned distinct Builts")
		}
	}
}

package workloads

import (
	"fmt"
	"sync"
)

// Memo caches Built workloads per (name, scale) so a figure sweep
// builds each workload graph/trace once and shares the immutable Built
// across every cell instead of rebuilding per cell.
//
// Sharing is safe because a Built never changes after construction:
// the allocation space is read-only once sized, and the kernel closures
// capture only immutable inputs (index slices, bitmaps, CSR arrays,
// operand lists). The per-warp state a kernel does create, its warp
// programs, comes from goroutine-safe pools shared by every cell: each
// program is reset when a kernel takes it and returns to the pool when
// its warp retires (gpu.Releaser), so concurrent cells may take turns
// with one program object but never hold it at the same time. Every
// other per-run mutable object (warp state, driver, device memory) is
// created by the simulator, not the workload. Deterministic seeds
// are baked into each factory, so (name, scale) fully identifies the
// build — there is no external seed dimension to key on.
//
// Get is safe for concurrent use by parallel sweep workers and by the
// sweep service's job goroutines. Builds are serialized per key, not
// globally: concurrent first requests for the *same* (name, scale)
// share one build, while requests for distinct keys build concurrently
// (a long scale-1.0 build must not stall every unrelated job behind a
// global lock — see TestMemoDistinctKeysBuildConcurrently).
type Memo struct {
	mu sync.Mutex
	m  map[memoKey]*memoEntry

	// build constructs a workload; tests override it to observe build
	// concurrency. nil selects the real factories.
	build func(name string, scale float64) *Built
}

type memoKey struct {
	name  string
	scale float64
}

// memoEntry is the per-key future: the once runs the build exactly one
// time while other keys proceed independently.
type memoEntry struct {
	once sync.Once
	b    *Built
}

// NewMemo returns an empty workload cache.
func NewMemo() *Memo { return &Memo{m: make(map[memoKey]*memoEntry)} }

// Get returns the cached Built for (name, scale), building and caching
// it on first request. Unknown names panic exactly as MustGet does.
func (m *Memo) Get(name string, scale float64) *Built {
	// Resolve the factory before touching the entry so an unknown name
	// panics on every caller instead of poisoning the key's once.
	build := m.build
	if build == nil {
		f := MustGet(name)
		build = func(_ string, scale float64) *Built { return f(scale) }
	}
	key := memoKey{name: name, scale: scale}
	m.mu.Lock()
	e := m.m[key]
	if e == nil {
		e = &memoEntry{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.b = build(name, scale) })
	if e.b == nil {
		// A panicking build marks the once done with a nil Built; later
		// callers must not silently receive it.
		panic(fmt.Sprintf("workloads: build of %q (scale %g) previously failed", name, scale))
	}
	return e.b
}

// Len reports how many distinct (name, scale) builds the memo holds.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

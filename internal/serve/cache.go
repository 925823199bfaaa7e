package serve

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result store: canonical cell key →
// immutable serialized resultio.CellEntry bytes. Determinism makes the
// payload for a key immutable, so the cache never rewrites an entry:
// the first writer wins and every later Put of the same key is a no-op
// (any two writers computed identical bytes). With a positive entry
// bound the cache evicts in strict least-recently-used order — the
// victim is fully determined by the Get/Put sequence, never by map
// iteration order — and an evicted key is simply recomputed on its next
// miss, with identical bytes. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int // maximum entries; 0 = unbounded
	entries map[string]*list.Element
	// lru orders entries by recency, front = most recently used; each
	// element holds a *cacheEntry.
	lru       *list.List
	bytes     uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key     string
	payload []byte
}

// CacheStats is a point-in-time view of the cache, served by the
// /v1/cache endpoint.
type CacheStats struct {
	Entries int    `json:"entries"`
	Bytes   uint64 `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound; MaxEntries is
	// that bound (0 = unbounded).
	Evictions  uint64 `json:"evictions"`
	MaxEntries int    `json:"maxEntries,omitempty"`
}

// NewCacheWithLimit returns an empty cache holding at most maxEntries
// entries (0 = unbounded), evicting least-recently-used first.
func NewCacheWithLimit(maxEntries int) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the payload stored under key, recording a hit or miss and
// refreshing the entry's recency. The returned slice is shared and must
// not be mutated.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// Put stores payload under key if absent and returns the stored bytes.
// The cache takes ownership of payload: the caller must not mutate it
// afterwards. Payloads are content-defined by the key, so a concurrent
// duplicate Put carries identical bytes: the first write wins, and the
// duplicate gets the first writer's slice back. A duplicate still
// refreshes recency, since the key was just recomputed. When the insert
// exceeds the entry bound, the least-recently-used entry is evicted.
func (c *Cache) Put(key string, payload []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).payload
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, payload: payload})
	c.bytes += uint64(len(payload))
	for c.max > 0 && c.lru.Len() > c.max {
		victim := c.lru.Back()
		e := victim.Value.(*cacheEntry)
		c.lru.Remove(victim)
		delete(c.entries, e.key)
		c.bytes -= uint64(len(e.payload))
		c.evictions++
	}
	return payload
}

// Stats returns the current cache statistics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		MaxEntries: c.max,
	}
}

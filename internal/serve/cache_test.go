package serve

import (
	"fmt"
	"testing"
)

func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCacheWithLimit(0)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	cs := c.Stats()
	if cs.Entries != 100 || cs.Evictions != 0 || cs.MaxEntries != 0 {
		t.Fatalf("stats = %+v, want 100 entries, no evictions", cs)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCacheWithLimit(2)
	c.Put("a", []byte("aa"))
	c.Put("b", []byte("bb"))
	// Touch a so b is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", []byte("cc"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived — eviction is not LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh c was evicted")
	}
	cs := c.Stats()
	if cs.Entries != 2 || cs.Evictions != 1 || cs.MaxEntries != 2 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", cs)
	}
	if cs.Bytes != 4 {
		t.Fatalf("bytes = %d after evicting bb, want 4", cs.Bytes)
	}
}

func TestCacheDuplicatePutRefreshesRecency(t *testing.T) {
	c := NewCacheWithLimit(2)
	c.Put("a", []byte("a1"))
	c.Put("b", []byte("b1"))
	// Duplicate Put must not replace the payload but must refresh a's
	// recency, making b the next victim.
	c.Put("a", []byte("XX"))
	c.Put("c", []byte("c1"))
	if p, ok := c.Get("a"); !ok || string(p) != "a1" {
		t.Fatalf("a = %q, %v; want original payload retained", p, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived — duplicate Put did not refresh recency")
	}
}

func TestCacheEvictedKeyIsRecomputable(t *testing.T) {
	// The service-level property behind the bound: an evicted key is a
	// plain miss, and re-Putting it restores the identical payload.
	c := NewCacheWithLimit(1)
	c.Put("a", []byte("payload"))
	c.Put("b", []byte("other")) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived a limit-1 cache")
	}
	c.Put("a", []byte("payload"))
	if p, ok := c.Get("a"); !ok || string(p) != "payload" {
		t.Fatalf("re-put a = %q, %v", p, ok)
	}
	cs := c.Stats()
	if cs.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", cs.Evictions)
	}
}

func TestCacheNegativeLimitMeansUnbounded(t *testing.T) {
	c := NewCacheWithLimit(-5)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if cs := c.Stats(); cs.Entries != 10 || cs.MaxEntries != 0 {
		t.Fatalf("stats = %+v", cs)
	}
}

func TestServerBoundedCachePublishesEvictions(t *testing.T) {
	s := NewServer(Options{CacheMaxEntries: 1})
	s.cache.Put("k1", []byte("a"))
	s.cache.Put("k2", []byte("b"))
	snap := s.MetricsSnapshot()
	if got := snap.Counters["serve.cache.evictions"]; got != 1 {
		t.Fatalf("serve.cache.evictions = %d, want 1", got)
	}
	if got := snap.Counters["serve.cache.entries"]; got != 1 {
		t.Fatalf("serve.cache.entries = %d, want 1", got)
	}
}

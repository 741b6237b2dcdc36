package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"adindex"
)

func ad(id uint64) []adindex.Ad {
	return []adindex.Ad{adindex.NewAd(id, fmt.Sprintf("phrase %d", id), adindex.Meta{})}
}

// cachedAds decodes a cached reply's body back into the ads it encodes.
func cachedAds(t *testing.T, reply Cached) []adindex.Ad {
	t.Helper()
	var ads []adindex.Ad
	if err := json.Unmarshal(reply.Body, &ads); err != nil {
		t.Errorf("cached body %q: %v", reply.Body, err)
	}
	if reply.Matched != len(ads) {
		t.Errorf("cached reply says %d matched, body holds %d ads", reply.Matched, len(ads))
	}
	return ads
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8, 2)
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 0, ad(1))
	reply, ok := c.Get("k", 0)
	if got := cachedAds(t, reply); !ok || len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	hits, misses, inv := c.Stats()
	if hits != 1 || misses != 1 || inv != 0 {
		t.Errorf("stats = %d/%d/%d, want 1/1/0", hits, misses, inv)
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache(8, 1)
	c.Put("k", 0, ad(1))
	// Same key at a newer epoch: the stale entry must never be served.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("served a result from an older epoch")
	}
	_, _, inv := c.Stats()
	if inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}
	if c.Len() != 0 {
		t.Errorf("stale entry not removed: len = %d", c.Len())
	}
	// An entry stored at a *newer* epoch than the reader's view must not
	// be served either (e.g. a reader that captured its epoch before a
	// mutation landed).
	c.Put("k", 2, ad(2))
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("served a result from a different epoch")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1) // single shard, two entries
	c.Put("a", 0, ad(1))
	c.Put("b", 0, ad(2))
	c.Get("a", 0) // a is now most-recent
	c.Put("c", 0, ad(3))
	if _, ok := c.Get("b", 0); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("recently-used entry a was evicted")
	}
	if _, ok := c.Get("c", 0); !ok {
		t.Error("new entry c missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestCacheBytes: the byte total follows the live entries through every
// way one can leave — replacement, eviction, invalidation.
func TestCacheBytes(t *testing.T) {
	c := NewCache(2, 1)
	size := func(key string, ads []adindex.Ad) int64 {
		b, err := json.Marshal(ads)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(key) + len(b))
	}
	check := func(step string, want int64) {
		t.Helper()
		if got := c.Bytes(); got != want {
			t.Errorf("%s: Bytes = %d, want %d", step, got, want)
		}
	}
	check("empty", 0)
	c.Put("a", 0, ad(1))
	c.Put("bb", 0, nil)
	check("two entries", size("a", ad(1))+size("bb", nil))
	c.Put("a", 0, ad(1000000)) // replaced by a longer body
	check("replace", size("a", ad(1000000))+size("bb", nil))
	c.Put("ccc", 0, ad(3)) // evicts bb, the least recently used
	check("evict", size("a", ad(1000000))+size("ccc", ad(3)))
	c.Get("a", 1) // stale: dropped
	check("invalidate", size("ccc", ad(3)))
	var off *Cache
	if off.Bytes() != 0 {
		t.Error("nil cache holds bytes")
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *Cache // NewCache(<=0, …) returns nil; all methods are no-ops
	if c := NewCache(0, 4); c != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
	c.Put("k", 0, ad(1))
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(100, 3)
	if len(c.shards) != 4 {
		t.Errorf("shards = %d, want 4 (rounded up to power of two)", len(c.shards))
	}
	// Total capacity is at least the requested number of entries.
	total := 0
	for _, s := range c.shards {
		total += s.cap
	}
	if total < 100 {
		t.Errorf("total capacity %d < requested 100", total)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%32)
				epoch := uint64(i % 3)
				if reply, ok := c.Get(key, epoch); ok {
					if got := cachedAds(t, reply); len(got) != 1 {
						t.Errorf("bad cached value for %s: %v", key, got)
						return
					}
				}
				c.Put(key, epoch, ad(uint64(i)))
			}
		}(g)
	}
	wg.Wait()
}

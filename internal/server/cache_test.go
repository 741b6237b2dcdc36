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

// TestCacheEpochInvalidation: an entry is served while its epoch is at
// least the epoch a write last touched the query's words at, from whatever
// view the reader holds; once older it is a miss that stays in place for
// the put that follows; and an old view's put never replaces a newer reply.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache(8, 1)
	get := func(changedAt uint64) (uint64, bool) {
		t.Helper()
		reply, ok := c.Get("k", changedAt)
		if !ok {
			return 0, false
		}
		return cachedAds(t, reply)[0].ID, true
	}
	c.Put("k", 3, ad(1))
	// Writes elsewhere moved the index on, none touched this query's words
	// after epoch 3: served, whether the words were last written before the
	// entry or by the very state it was computed on.
	for _, changedAt := range []uint64{0, 2, 3} {
		if id, ok := get(changedAt); !ok || id != 1 {
			t.Fatalf("changed at %d, entry from 3: Get = %d, %v", changedAt, id, ok)
		}
	}
	// A write at epoch 4 touched one of the words: never served again.
	if _, ok := get(4); ok {
		t.Fatal("served a reply older than the last write to its words")
	}
	if _, _, inv := c.Stats(); inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}
	// The outdated entry waits where it is, and the put that follows the
	// miss rewrites it: same map slot, same list element.
	el := c.shards[0].items["k"]
	if el == nil || c.Len() != 1 {
		t.Fatalf("outdated entry dropped before its refresh: len = %d", c.Len())
	}
	c.Put("k", 4, ad(2))
	if c.shards[0].items["k"] != el || c.Len() != 1 {
		t.Error("refresh replaced the entry instead of rewriting it in place")
	}
	if id, ok := get(4); !ok || id != 2 {
		t.Fatalf("after refresh: Get = %d, %v", id, ok)
	}
	// A reader that took its view before that write computes the old
	// answer at epoch 2 or 3: it neither overwrites the newer reply nor
	// evicts it, and is itself served the newer one.
	c.Put("k", 3, ad(9))
	if id, ok := get(4); !ok || id != 2 {
		t.Fatalf("an older view's put replaced the newer entry: Get = %d, %v", id, ok)
	}
	if id, ok := get(1); !ok || id != 2 {
		t.Fatalf("a reader on an old view: Get = %d, %v, want the newer entry", id, ok)
	}
	if _, _, inv := c.Stats(); inv != 1 {
		t.Errorf("invalidations = %d, want still 1", inv)
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

// TestCacheBytes: the byte total follows the entries through every way a
// body can leave — replacement, eviction, the refresh of an outdated entry
// (which keeps its bytes until then).
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
	c.Get("a", 1) // outdated: stays until refreshed
	check("invalidate", size("a", ad(1000000))+size("ccc", ad(3)))
	c.Put("a", 1, ad(7))
	check("refresh", size("a", ad(7))+size("ccc", ad(3)))
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

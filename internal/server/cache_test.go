package server

import (
	"container/list"
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

// TestCacheLRUEviction: in a two-entry shard (one probation slot, one
// protected) a new reply displaces the least-recently-used probation entry,
// never the protected one, and a promotion that overflows the protected
// segment demotes its entry instead of dropping it.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1) // single shard, two entries
	c.Put("a", 0, ad(1))
	c.Get("a", 0) // a repeat: a is protected
	c.Put("b", 0, ad(2))
	c.Put("c", 0, ad(3)) // probation is full: evicts b
	if _, ok := c.Get("b", 0); ok {
		t.Error("probation entry b survived eviction")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("protected entry a was evicted by a new reply")
	}
	if _, ok := c.Get("c", 0); !ok { // promotes c, demoting a
		t.Error("new entry c missing")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("demoted entry a was dropped")
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
		checkSegments(t, c)
	}
	check("empty", 0)
	c.Put("a", 0, ad(1))
	c.Get("a", 0) // protected, so the next reply does not evict it
	c.Put("bb", 0, nil)
	check("two entries", size("a", ad(1))+size("bb", nil))
	c.Put("a", 0, ad(1000000)) // replaced by a longer body
	check("replace", size("a", ad(1000000))+size("bb", nil))
	c.Put("ccc", 0, ad(3)) // evicts bb, the least recently used probation entry
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

// segments returns the keys of each segment of a one-shard cache, most
// recent first.
func segments(c *Cache) (probation, protected []string) {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.probation.Front(); el != nil; el = el.Next() {
		probation = append(probation, el.Value.(*cacheEntry).key)
	}
	for el := s.protected.Front(); el != nil; el = el.Next() {
		protected = append(protected, el.Value.(*cacheEntry).key)
	}
	return probation, protected
}

// checkSegments holds every shard to the segment invariants: probation
// within ⌈cap/5⌉, both segments within cap, every entry flagged for the
// segment it is linked into and indexed by its key, and the byte count the
// sum over both segments.
func checkSegments(t *testing.T, c *Cache) {
	t.Helper()
	for i, s := range c.shards {
		s.mu.Lock()
		var sum int64
		n := 0
		for _, seg := range []struct {
			l         *list.List
			protected bool
		}{{&s.probation, false}, {&s.protected, true}} {
			for el := seg.l.Front(); el != nil; el = el.Next() {
				ent := el.Value.(*cacheEntry)
				if ent.protected != seg.protected || s.items[ent.key] != el {
					t.Errorf("shard %d: entry %q misfiled (protected=%v, in protected list %v)", i, ent.key, ent.protected, seg.protected)
				}
				sum += ent.size()
				n++
			}
		}
		if limit := (s.cap + 4) / 5; s.probation.Len() > limit {
			t.Errorf("shard %d: probation holds %d entries, limit %d", i, s.probation.Len(), limit)
		}
		if n > s.cap || n != len(s.items) {
			t.Errorf("shard %d: %d linked entries, %d indexed, cap %d", i, n, len(s.items), s.cap)
		}
		if sum != s.bytes {
			t.Errorf("shard %d: Bytes counts %d, the segments hold %d", i, s.bytes, sum)
		}
		s.mu.Unlock()
	}
}

// TestCacheScanResistance: a working set asked twice survives a stream of
// replies that are never asked again — the one-off stream cycles through
// probation, which never outgrows a fifth of the shard.
func TestCacheScanResistance(t *testing.T) {
	c := NewCache(1024, 1)
	ask := func(key string) bool {
		if _, ok := c.Get(key, 0); ok {
			return true
		}
		c.Put(key, 0, nil)
		return false
	}
	const working = 600
	for i := 0; i < working; i++ {
		key := fmt.Sprintf("w%d", i)
		if ask(key) || !ask(key) {
			t.Fatalf("working-set key %s: want a miss, then a hit", key)
		}
	}
	oneOffs := 100_000
	if testing.Short() {
		oneOffs = 10_000
	}
	for i := 0; i < oneOffs; i++ {
		if ask(fmt.Sprintf("once%d", i)) {
			t.Fatalf("one-off key %d hit", i)
		}
		checkSegments(t, c)
	}
	for i := 0; i < working; i++ {
		if _, ok := c.Get(fmt.Sprintf("w%d", i), 0); !ok {
			t.Fatalf("working-set key w%d was displaced by one-off keys", i)
		}
	}
	if got := c.probationLen(); got != 205 || c.Len() != working+205 {
		t.Errorf("len %d with %d in probation, want %d with 205", c.Len(), got, working+205)
	}
}

// TestCacheProbationHitPromotes: a repeat inside probation is a hit and
// moves the entry to protected, out of the way of the next new replies.
func TestCacheProbationHitPromotes(t *testing.T) {
	c := NewCache(10, 1) // probation 2, protected 8
	c.Put("a", 0, ad(1))
	if prob, prot := segments(c); len(prob) != 1 || len(prot) != 0 {
		t.Fatalf("a new reply went to %v / %v, want probation", prob, prot)
	}
	if reply, ok := c.Get("a", 0); !ok || cachedAds(t, reply)[0].ID != 1 {
		t.Fatal("a repeat inside probation missed")
	}
	if prob, prot := segments(c); len(prob) != 0 || len(prot) != 1 || prot[0] != "a" {
		t.Fatalf("after its repeat: probation %v, protected %v, want a protected", prob, prot)
	}
	for _, key := range []string{"b", "c", "d"} { // three new replies through a two-entry probation
		c.Put(key, 0, ad(2))
	}
	prob, prot := segments(c)
	if fmt.Sprint(prob) != "[d c]" || fmt.Sprint(prot) != "[a]" {
		t.Errorf("probation %v, protected %v, want [d c] and [a]", prob, prot)
	}
	checkSegments(t, c)
}

// TestCacheProtectedOverflowDemotes: promoting into a full protected
// segment demotes its least-recently-used entry to the head of probation,
// where it is the last to go and a hit brings it back.
func TestCacheProtectedOverflowDemotes(t *testing.T) {
	c := NewCache(10, 1) // probation 2, protected 8
	for i := 0; i <= 8; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, 0, ad(uint64(i)))
		c.Get(key, 0)
	}
	prob, prot := segments(c)
	if fmt.Sprint(prob) != "[k0]" || len(prot) != 8 || prot[0] != "k8" || prot[7] != "k1" {
		t.Fatalf("probation %v, protected %v: want k0 demoted, k8..k1 protected", prob, prot)
	}
	c.Put("new", 0, ad(9))
	if prob, _ := segments(c); fmt.Sprint(prob) != "[new k0]" {
		t.Fatalf("probation %v, want the new reply ahead of the demoted k0", prob)
	}
	if _, ok := c.Get("k0", 0); !ok {
		t.Fatal("demoted k0 missed")
	}
	prob, prot = segments(c)
	if fmt.Sprint(prob) != "[k1 new]" || prot[0] != "k0" {
		t.Errorf("after k0's hit: probation %v, protected %v: want k0 back and k1 demoted", prob, prot)
	}
	checkSegments(t, c)
}

// TestCacheRefreshOutdated: the put that follows the miss on an outdated
// entry rewrites it in place in either segment and counts as a repeat.
func TestCacheRefreshOutdated(t *testing.T) {
	c := NewCache(10, 1)
	c.Put("p", 1, ad(1)) // probation
	c.Put("q", 1, ad(2))
	c.Get("q", 0) // protected
	for _, key := range []string{"p", "q"} {
		if _, ok := c.Get(key, 2); ok {
			t.Fatalf("%s: served a reply older than the last write to its words", key)
		}
	}
	if prob, prot := segments(c); fmt.Sprint(prob) != "[p]" || fmt.Sprint(prot) != "[q]" {
		t.Fatalf("an invalidation moved an entry: probation %v, protected %v", prob, prot)
	}
	qel := c.shards[0].items["q"]
	c.Put("p", 2, ad(3))
	c.Put("q", 2, ad(4))
	if c.shards[0].items["q"] != qel {
		t.Error("refreshing a protected entry replaced it instead of rewriting it in place")
	}
	if prob, prot := segments(c); len(prob) != 0 || fmt.Sprint(prot) != "[q p]" {
		t.Errorf("after the refreshes: probation %v, protected %v, want [] and [q p]", prob, prot)
	}
	for key, want := range map[string]uint64{"p": 3, "q": 4} {
		if reply, ok := c.Get(key, 2); !ok || cachedAds(t, reply)[0].ID != want {
			t.Errorf("%s after its refresh: hit %v", key, ok)
		}
	}
	if _, _, inv := c.Stats(); inv != 2 {
		t.Errorf("invalidations = %d, want 2", inv)
	}
	checkSegments(t, c)
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

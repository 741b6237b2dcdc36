package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/workload"
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

// store puts ads under key twice: the first sighting leaves a ghost, the
// second stores the reply.
func store(c *Cache, key string, epoch uint64, ads []adindex.Ad) {
	c.Put(key, epoch, ads)
	c.Put(key, epoch, ads)
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8, 2)
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 0, ad(1))
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("hit on a first sighting")
	}
	c.Put("k", 0, ad(1))
	reply, ok := c.Get("k", 0)
	if got := cachedAds(t, reply); !ok || len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	hits, misses, inv := c.Stats()
	if hits != 1 || misses != 2 || inv != 0 {
		t.Errorf("stats = %d/%d/%d, want 1/2/0", hits, misses, inv)
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
	store(c, "k", 3, ad(1))
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
// protected) a new key displaces the least-recently-used probation entry,
// never the protected one, and a promotion that overflows the protected
// segment demotes its entry instead of dropping it.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1)     // single shard, two entries
	store(c, "a", 0, ad(1)) // a second sighting: a is protected
	c.Put("b", 0, ad(2))
	c.Put("c", 0, ad(3)) // probation is full: evicts b
	if _, ok := c.Get("b", 0); ok {
		t.Error("probation entry b survived eviction")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("protected entry a was evicted by a new reply")
	}
	c.Put("c", 0, ad(3)) // c's second sighting promotes it, demoting a
	if _, ok := c.Get("c", 0); !ok {
		t.Error("new entry c missing")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("demoted entry a was dropped")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestCacheBytes: the entries' own bytes and the shared ads' bytes, each
// ad counted once, follow the entries through every way a key can arrive
// or leave. A ghost owns its key; a stored reply owns its key and 4 bytes
// per reference to its interned ads, or its key and its body if it holds
// no ad. Replacement, eviction of a ghost or of a demoted reply, and the
// refresh of an outdated entry (which keeps its bytes until then) each
// move both totals.
func TestCacheBytes(t *testing.T) {
	c := NewCache(2, 1) // one probation slot, one protected
	owned := func(key string, ads []adindex.Ad) int64 {
		switch {
		case ads == nil:
			return int64(len(key) + len("null"))
		case len(ads) == 0:
			return int64(len(key) + len("[]"))
		}
		return int64(len(key) + 4*len(ads))
	}
	ghost := func(key string) int64 { return int64(len(key)) }
	check := func(step string, want int64, shared ...adindex.Ad) {
		t.Helper()
		if got := c.Bytes(); got != want {
			t.Errorf("%s: Bytes = %d, want %d", step, got, want)
		}
		var sharedBytes int64
		for i := range shared {
			sharedBytes += int64(len(shared[i].AppendJSON(nil)))
		}
		if n, b := c.sharedAds(); n != len(shared) || b != sharedBytes {
			t.Errorf("%s: shared ads = %d of %d bytes, want %d of %d", step, n, b, len(shared), sharedBytes)
		}
		checkSegments(t, c)
	}
	a1, a3, a7, big := ad(1)[0], ad(3)[0], ad(7)[0], ad(1000000)[0]
	check("empty", 0)
	c.Put("a", 0, ad(1))
	check("a first sighting", ghost("a"))
	c.Put("a", 0, ad(1)) // the second: stored, its ad interned
	check("its second sighting", owned("a", ad(1)), a1)
	c.Put("bb", 0, nil)
	check("a ghost beside it", owned("a", ad(1))+ghost("bb"), a1)
	c.Put("a", 0, ad(1000000)) // replaced by a longer ad, interned at once
	check("replace", owned("a", ad(1000000))+ghost("bb"), big)
	ccc := []adindex.Ad{a3, big}
	c.Put("ccc", 0, ccc) // evicts bb, the least recently used probation entry
	check("evict a ghost", owned("a", ad(1000000))+ghost("ccc"), big)
	c.Put("ccc", 0, ccc) // promoted, demoting a; big is held once
	check("sharing", owned("a", ad(1000000))+owned("ccc", ccc), a3, big)
	c.Get("a", 1) // outdated: stays until refreshed
	check("invalidate", owned("a", ad(1000000))+owned("ccc", ccc), a3, big)
	c.Put("a", 1, []adindex.Ad{})
	check("refresh", owned("a", []adindex.Ad{})+owned("ccc", ccc), a3, big)
	c.Put("bb", 0, nil) // evicts ccc, demoted by a's refresh
	check("evict a demoted reply", owned("a", []adindex.Ad{})+ghost("bb"))
	c.Put("bb", 0, nil) // promoted, demoting a
	check("a reply without ads", owned("a", []adindex.Ad{})+owned("bb", nil))
	c.Get("a", 0) // promoted, demoting bb
	check("promotion", owned("a", []adindex.Ad{})+owned("bb", nil))
	c.Put("a", 2, []adindex.Ad{a7, a3})
	check("refresh with ads", owned("a", []adindex.Ad{a7, a3})+owned("bb", nil), a3, a7)
	var off *Cache
	if n, b := off.sharedAds(); off.Bytes() != 0 || n != 0 || b != 0 {
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
	checkFragments(t, c)
}

// checkFragments holds the fragment table to the entries: a ghost holds
// no reply and sits in probation, every other entry holds its body in one
// form (one with ads always as references), every
// slot's count is the number of references the entries hold to it, a slot is
// free exactly when that is 0, a slot in use holds an ad's JSON, the ID
// index points at slots in use of that ID, and the table's totals are the
// sums over its slots.
func checkFragments(t *testing.T, c *Cache) {
	t.Helper()
	want := map[uint32]uint32{}
	for _, s := range c.shards {
		s.mu.Lock()
		for _, el := range s.items {
			ent := el.Value.(*cacheEntry)
			for _, i := range ent.refs {
				want[i]++
			}
			// Nothing on a ghost; else bytes or references, and a reply
			// with ads, references.
			if ent.ghost && (ent.protected || ent.body != nil || ent.refs != nil) ||
				!ent.ghost && ((ent.refs == nil) == (ent.body == nil) || holdsAds(ent.body)) {
				t.Errorf("entry %q (ghost %v, protected %v): body %q, %d references", ent.key, ent.ghost, ent.protected, ent.body, len(ent.refs))
			}
		}
		s.mu.Unlock()
	}
	tb := &c.ads
	tb.mu.Lock()
	defer tb.mu.Unlock()
	live, free := 0, map[uint32]bool{}
	var bytes int64
	for _, i := range tb.free {
		free[i] = true
	}
	for i := uint32(0); i < tb.slots; i++ {
		ch, j := tb.at(i)
		refs, json := ch.refs[j], ch.json[j]
		if refs != want[i] {
			t.Errorf("fragment %d (ad %d) counts %d references, the entries hold %d", i, ch.id[j], refs, want[i])
		}
		if free[i] != (refs == 0) || (refs == 0) != (json == nil) {
			t.Errorf("fragment %d: %d references, %d bytes, on the free list %v", i, refs, len(json), free[i])
		}
		if refs > 0 {
			live++
			bytes += int64(len(json))
		}
	}
	if len(free) != len(tb.free) || live+len(tb.free) != int(tb.slots) {
		t.Errorf("%d slots: %d in use, %d on the free list (%d distinct)", tb.slots, live, len(tb.free), len(free))
	}
	for id, i := range tb.byID {
		if ch, j := tb.at(i); ch.refs[j] == 0 || ch.id[j] != id {
			t.Errorf("ID %d indexes fragment %d, which holds ad %d with %d references", id, i, ch.id[j], ch.refs[j])
		}
	}
	if live != tb.live || bytes != tb.bytes {
		t.Errorf("table counts %d fragments of %d bytes, its slots hold %d of %d", tb.live, tb.bytes, live, bytes)
	}
}

// TestCacheScanResistance: a working set asked three times survives a
// stream of queries that are never asked again — the one-off stream cycles
// through probation as ghosts, and probation never outgrows a fifth of the
// shard.
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
		if ask(key) || ask(key) || !ask(key) {
			t.Fatalf("working-set key %s: want two misses, then a hit", key)
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
	if got := c.probationLen(); got != 205 || c.Len() != working+205 || c.ghostLen() != 205 {
		t.Errorf("len %d with %d in probation, %d ghosts, want %d with 205 ghosts in probation", c.Len(), got, c.ghostLen(), working+205)
	}
}

// TestCacheProbationHitPromotes: a first sighting is a ghost in probation,
// which a Get misses without moving; the second sighting stores the reply
// in protected, out of the way of the next new keys, where it hits.
func TestCacheProbationHitPromotes(t *testing.T) {
	c := NewCache(10, 1) // probation 2, protected 8
	c.Put("a", 0, ad(1))
	if prob, prot := segments(c); len(prob) != 1 || len(prot) != 0 {
		t.Fatalf("a new key went to %v / %v, want probation", prob, prot)
	}
	if _, ok := c.Get("a", 0); ok {
		t.Fatal("a ghost hit")
	}
	if prob, prot := segments(c); len(prob) != 1 || len(prot) != 0 {
		t.Fatalf("a miss on a ghost moved it to %v / %v", prob, prot)
	}
	c.Put("a", 0, ad(1))
	if reply, ok := c.Get("a", 0); !ok || cachedAds(t, reply)[0].ID != 1 {
		t.Fatal("a repeat after the second sighting missed")
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
		store(c, fmt.Sprintf("k%d", i), 0, ad(uint64(i)))
	}
	prob, prot := segments(c)
	if fmt.Sprint(prob) != "[k0]" || len(prot) != 8 || prot[0] != "k8" || prot[7] != "k1" {
		t.Fatalf("probation %v, protected %v: want k0 demoted, k8..k1 protected", prob, prot)
	}
	c.Put("new", 0, ad(9))
	if prob, _ := segments(c); fmt.Sprint(prob) != "[new k0]" {
		t.Fatalf("probation %v, want the new ghost ahead of the demoted k0", prob)
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
	c := NewCache(2, 1) // probation 1, protected 1
	store(c, "p", 1, ad(1))
	store(c, "q", 1, ad(2)) // protected, demoting p to probation
	for _, key := range []string{"p", "q"} {
		if _, ok := c.Get(key, 2); ok {
			t.Fatalf("%s: served a reply older than the last write to its words", key)
		}
	}
	if prob, prot := segments(c); fmt.Sprint(prob) != "[p]" || fmt.Sprint(prot) != "[q]" {
		t.Fatalf("an invalidation moved an entry: probation %v, protected %v", prob, prot)
	}
	qel := c.shards[0].items["q"]
	c.Put("q", 2, ad(4))
	if c.shards[0].items["q"] != qel {
		t.Error("refreshing a protected entry replaced it instead of rewriting it in place")
	}
	c.Put("p", 2, ad(3))
	if prob, prot := segments(c); fmt.Sprint(prob) != "[q]" || fmt.Sprint(prot) != "[p]" {
		t.Errorf("after the refreshes: probation %v, protected %v, want p promoted and q demoted", prob, prot)
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

// TestCacheSharesAds: replies that share ads hold each shared ad once (a
// ghost holds none); every way a reply leaves the cache — an eviction, the
// refresh of an outdated entry, an older view's refused put — leaves every
// reference count exact;
// once every entry that held ads is gone the table is empty; and on a hot
// query stream the cache holds a fraction of the bytes its replies carry.
func TestCacheSharesAds(t *testing.T) {
	ads := make([]adindex.Ad, 10)
	for i := range ads {
		ads[i] = adindex.NewAd(uint64(i), fmt.Sprintf("shared phrase %d", i), adindex.Meta{BidMicros: int64(i)})
	}
	pick := func(ids ...int) []adindex.Ad {
		out := make([]adindex.Ad, len(ids))
		for k, id := range ids {
			out[k] = ads[id]
		}
		return out
	}
	c := NewCache(10, 1) // probation 2, protected 8
	stored := map[string][]adindex.Ad{}
	put := func(key string, epoch uint64, list []adindex.Ad) {
		c.Put(key, epoch, list)
		stored[key] = list
	}
	store := func(key string, epoch uint64, list []adindex.Ad) {
		put(key, epoch, list)
		put(key, epoch, list)
	}
	// check holds the table to the distinct ads of the entries that
	// interned theirs, and says how many there are.
	check := func(step string, want int) {
		t.Helper()
		checkSegments(t, c)
		distinct := map[uint64]int{}
		s := c.shards[0]
		s.mu.Lock()
		for key, el := range s.items {
			if el.Value.(*cacheEntry).refs == nil {
				continue
			}
			for i := range stored[key] {
				distinct[stored[key][i].ID] = len(stored[key][i].AppendJSON(nil))
			}
		}
		s.mu.Unlock()
		var sum int64
		for _, n := range distinct {
			sum += int64(n)
		}
		if n, b := c.sharedAds(); n != len(distinct) || b != sum || n != want {
			t.Errorf("%s: shared ads = %d of %d bytes; the interned entries hold %d distinct ads, %d bytes; want %d", step, n, b, len(distinct), sum, want)
		}
	}
	hit := func(key string, changedAt uint64) {
		t.Helper()
		if reply, ok := c.Get(key, changedAt); !ok || string(reply.Body) != string(corpus.AppendAdsJSON(nil, stored[key])) {
			t.Errorf("%s: hit %v, body %s", key, ok, reply.Body)
		}
	}
	store("x", 0, pick(1, 2, 3))
	hit("x", 0)
	store("y", 0, pick(2, 3, 4))
	hit("y", 0)
	check("two protected entries", 4)
	hit("y", 0) // x is the protected segment's least recent
	put("p", 0, pick(4, 5))
	check("a first sighting", 4)

	for i := 1; i <= 7; i++ { // k7's promotion overflows protected: x is demoted
		key := fmt.Sprintf("k%d", i)
		store(key, 0, pick(6))
		hit(key, 0)
	}
	if prob, _ := segments(c); fmt.Sprint(prob) != "[x p]" {
		t.Fatalf("probation %v, want x demoted ahead of p", prob)
	}
	check("demotion", 5)
	put("n1", 0, nil)     // evicts the ghost p
	put("n2", 0, pick(7)) // evicts x: 1 goes, 2 and 3 stay with y
	check("eviction", 4)

	c.Get("y", 1) // outdated
	put("y", 1, pick(2, 8))
	check("refresh of an outdated entry", 3) // 3 and 4 go, 8 takes a freed slot
	c.Put("y", 0, pick(9))                   // an older view's put: refused
	check("refused put", 3)
	hit("y", 1)

	// Repeated replies without ads push every other entry out: protected
	// overflow demotes, probation evicts.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("empty%d", i)
		store(key, 0, nil)
		hit(key, 0)
	}
	put("last", 0, []adindex.Ad{})
	put("last2", 0, nil)
	check("every entry with ads gone", 0)
	if n, b := c.sharedAds(); n != 0 || b != 0 || len(c.ads.byID) != 0 || len(c.ads.free) != int(c.ads.slots) {
		t.Errorf("table after its last reference: %d ads of %d bytes, %d IDs, %d of %d slots free", n, b, len(c.ads.byID), len(c.ads.free), c.ads.slots)
	}

	// A hot stream: power-law queries over a 20k-ad corpus, each asked
	// three times, against what a cache of whole replies would hold.
	corp := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 3201})
	s := New(adindex.Build(corp.Ads, adindex.Options{}), Config{})
	_, queries := hotQueries(corp, 5000, 3202)
	var whole int64
	for _, q := range queries {
		miss := serve(t, s, "GET", searchTarget(q, "broad"), "")
		serve(t, s, "GET", searchTarget(q, "broad"), "") // the second sighting stores it
		again := serve(t, s, "GET", searchTarget(q, "broad"), "")
		if withoutVolatile(miss) != withoutVolatile(again) || !bytes.Contains(again, []byte(`"cached":true`)) {
			t.Fatalf("%q: hit %s\nmiss %s", q, again, miss)
		}
		whole += int64(bytes.Index(miss, []byte(`,"took_us"`)) - bytes.Index(miss, []byte(`"ads":`)) - len(`"ads":`))
	}
	checkSegments(t, s.cache)
	n, shared := s.cache.sharedAds()
	if held := s.cache.Bytes() + shared; held*5 > whole {
		t.Errorf("the cache holds %d bytes (%d own, %d in %d shared ads) for replies carrying %d bytes of ads, want at most a fifth", held, held-shared, shared, n, whole)
	} else {
		t.Logf("the cache holds %d bytes (%d in %d shared ads) for replies carrying %d bytes of ads", held, shared, n, whole)
	}
}

// TestCacheSlotReuse: eight goroutines put, get and refresh 64 keys in a
// 2-shard, 8-entry cache whose replies overlap in ads, some of them IDs
// whose content changes with the epoch, so ads are interned, fragments
// freed and slots reused all the time. Every hit's body is exactly the encoding of the
// ads stored under its key at its epoch, which a marker ad in each reply
// names.
func TestCacheSlotReuse(t *testing.T) {
	c := NewCache(8, 2)
	const keys, epochs, marker = 64, 4, 1_000_000
	adsOf := func(key, epoch int) []adindex.Ad {
		list := []adindex.Ad{adindex.NewAd(uint64(marker+key*epochs+epoch), "marker", adindex.Meta{})}
		for j := 0; j < 1+key%5; j++ {
			id := (key + 3*j) % 16
			// IDs 0-3 carry other content in other epochs.
			phrase := fmt.Sprintf("overlap %d", id)
			if id < 4 {
				phrase += fmt.Sprintf(" v%d", epoch%2)
			}
			list = append(list, adindex.NewAd(uint64(id), phrase, adindex.Meta{BidMicros: int64(id)}))
		}
		return list
	}
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*ops; i++ {
				// Each key is asked three times in a row, so a reply is
				// stored — its ads interned — and repeated unless another
				// goroutine's evicted it.
				key := (g*7 + i/3*13) % keys
				changedAt := uint64((i / 9) % epochs)
				name := fmt.Sprintf("k%d", key)
				reply, ok := c.Get(name, changedAt)
				if !ok {
					c.Put(name, changedAt, adsOf(key, int(changedAt)))
					continue
				}
				var got []adindex.Ad
				if err := json.Unmarshal(reply.Body, &got); err != nil || len(got) == 0 || got[0].ID < marker {
					t.Errorf("%s: body %s: %v", name, reply.Body, err)
					return
				}
				k, epoch := int(got[0].ID-marker)/epochs, int(got[0].ID-marker)%epochs
				if want := corpus.AppendAdsJSON(nil, adsOf(key, epoch)); k != key || uint64(epoch) < changedAt || !bytes.Equal(reply.Body, want) {
					t.Errorf("%s at %d: hit %s\nwant the reply of epoch %d: %s", name, changedAt, reply.Body, epoch, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkSegments(t, c)
	// The 64 keys' replies carry 256 distinct markers, of which the 8
	// entries hold at most 8 at a time: the slots were reused.
	hits, _, _ := c.Stats()
	if hits < uint64(ops) || c.ads.slots > 64 {
		t.Errorf("%d hits, %d fragment slots: want at least %d hits and at most 64 slots", hits, c.ads.slots, ops)
	}
	t.Logf("%d hits, %d fragment slots", hits, c.ads.slots)
}

// TestCacheAdmissionReplay replays the shape of the hot benchmark stream —
// 400k requests over 20k power-law queries on a 200k-ad corpus, no writes
// — through a cache of the server's default size, asking each request's
// word-set key and putting what misses. Every distinct query misses
// exactly twice, its first sighting and the second that stores it, and
// never a third time: probation holds each ghost until its repeat, and
// the working set fits.
func TestCacheAdmissionReplay(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		corp := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: seed})
		wl := workload.Generate(corp, workload.GenOptions{NumQueries: 20_000, HitProb: 0.7, MaxExtraWords: 3,
			LongQueryProb: 0.02, ZipfS: 1.0, MaxFreq: 200, Seed: seed + 1})
		keys := make(map[*workload.Query]string, len(wl.Queries))
		var sc searchScratch
		for i := range wl.Queries {
			words := wl.Queries[i].Words
			sc.tokenize("broad", strings.Join(words[:min(len(words), 12)], " "))
			keys[&wl.Queries[i]] = string(sc.key)
		}
		c := NewCache(DefaultCacheEntries, DefaultCacheShards)
		missed := map[string]int{}
		for _, q := range wl.Stream(400_000, seed+2) {
			if _, ok := c.Get(keys[q], 0); !ok {
				missed[keys[q]]++
				c.Put(keys[q], 0, nil)
			}
		}
		thirds := 0
		for _, n := range missed {
			if n > 2 {
				thirds++
			}
		}
		_, misses, _ := c.Stats()
		if misses != uint64(2*len(missed)) || thirds > 0 {
			t.Errorf("seed %d: %d misses over %d distinct queries, %d of them missed a third time; want 2 per query", seed, misses, len(missed), thirds)
		}
		t.Logf("seed %d: %d misses over %d distinct queries (%.3f of 400 000 requests)", seed, misses, len(missed), float64(misses)/400_000)
	}
}

// TestCacheFirstSightingsHoldNoBodies: 20 000 first sightings of 8 KB
// replies leave 20 000 ghosts that own their keys and nothing else, and
// put no ad in the shared table; the second sighting of each stores its
// reply as fragments, which a hit returns byte for byte.
func TestCacheFirstSightingsHoldNoBodies(t *testing.T) {
	const n = 20_000
	c := NewCache(5*n, 1) // probation holds every ghost
	ads := make([]adindex.Ad, 64)
	for i := range ads {
		ads[i] = adindex.NewAd(uint64(i+1), fmt.Sprintf("shared phrase %d with ten words of bid text here", i), adindex.Meta{BidMicros: int64(i)})
	}
	bodies := make([]Cached, len(ads)) // reply i holds 32 ads from ads[i%64] on
	for i := range bodies {
		list := make([]adindex.Ad, 32)
		for j := range list {
			list[j] = ads[(i+j)%len(ads)]
		}
		bodies[i] = Cached{Matched: len(list), Body: corpus.AppendAdsJSON(nil, list)}
	}
	body := func(i int) Cached { return bodies[i%len(bodies)] }
	if b := len(body(0).Body); b < 7_000 || b > 9_000 {
		t.Fatalf("a reply of %d bytes, want about 8 KB", b)
	}
	key := func(i int) string { return fmt.Sprintf("b\x00query %d", i) }
	var keyBytes int64
	for i := 0; i < n; i++ {
		cachePut(c, key(i), 0, body(i))
		keyBytes += int64(len(key(i)))
	}
	if shared, sharedBytes := c.sharedAds(); c.Bytes() != keyBytes || shared != 0 || sharedBytes != 0 || c.ghostLen() != n {
		t.Fatalf("after %d first sightings: %d bytes (keys %d), %d shared ads of %d bytes, %d ghosts; want the keys alone", n, c.Bytes(), keyBytes, shared, sharedBytes, c.ghostLen())
	}
	for i := 0; i < n; i++ {
		cachePut(c, key(i), 0, body(i))
	}
	var adBytes int64
	for i := range ads {
		adBytes += int64(len(ads[i].AppendJSON(nil)))
	}
	if shared, sharedBytes := c.sharedAds(); c.Bytes() != keyBytes+n*32*4 || shared != len(ads) || sharedBytes != adBytes || c.ghostLen() != 0 {
		t.Errorf("after the second sightings: %d bytes, %d shared ads of %d bytes, %d ghosts; want keys and 32 references each (%d), %d ads of %d bytes, none",
			c.Bytes(), shared, sharedBytes, c.ghostLen(), keyBytes+n*32*4, len(ads), adBytes)
	}
	for i := 0; i < n; i++ {
		if reply, ok := c.Get(key(i), 0); !ok || !bytes.Equal(reply.Body, body(i).Body) {
			t.Fatalf("%s: hit %v, body %.80s", key(i), ok, reply.Body)
		}
	}
	checkSegments(t, c)
}

// BenchmarkSearchHit times a cached /search over the working set of a hot
// stream (power-law queries over a 200k-ad corpus): every query was asked
// twice while warming up, so every entry is protected and every timed
// request is a hit.
func BenchmarkSearchHit(b *testing.B) {
	corp := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	s := New(adindex.Build(corp.Ads, adindex.Options{}), Config{})
	wl, queries := hotQueries(corp, 20_000, 2)
	reqs := make(map[*workload.Query]*http.Request, len(queries))
	w := &reusedWriter{h: http.Header{}}
	for i, q := range queries {
		req := httptest.NewRequest("GET", searchTarget(q, "broad"), nil)
		reqs[&wl.Queries[i]] = req
		s.handleSearch(w, req)
		s.handleSearch(w, req)
	}
	stream := wl.Stream(1<<16, 3)
	hits, _, _ := s.cache.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleSearch(w, reqs[stream[i%len(stream)]])
	}
	b.StopTimer()
	if after, _, _ := s.cache.Stats(); after-hits != uint64(b.N) {
		b.Fatalf("%d of %d requests hit", after-hits, b.N)
	}
}

// hotQueries generates n distinct queries over corp with the hot
// benchmark streams' frequency law (200/rank), each cut to the index's
// default 12-word cutoff so that no answer is cut short; queries[i] is
// wl.Queries[i] as text.
func hotQueries(corp *corpus.Corpus, n int, seed int64) (wl *workload.Workload, queries []string) {
	wl = workload.Generate(corp, workload.GenOptions{NumQueries: n, ZipfS: 1, MaxFreq: 200, Seed: seed})
	queries = make([]string, len(wl.Queries))
	for i := range wl.Queries {
		words := wl.Queries[i].Words
		queries[i] = strings.Join(words[:min(len(words), 12)], " ")
	}
	return wl, queries
}

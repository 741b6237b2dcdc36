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
// or leave. A ghost owns nothing: it is a fingerprint in the shard's fixed
// ring. A stored reply owns its key and 4 bytes per reference to its
// interned ads, or its key and its body if it holds no ad. Replacement,
// the eviction of a demoted reply, and the refresh of an outdated entry
// (which keeps its bytes until then) each move both totals.
func TestCacheBytes(t *testing.T) {
	c := NewCache(2, 1) // one probation slot, one protected, two ghosts
	owned := func(key string, ads []adindex.Ad) int64 {
		switch {
		case ads == nil:
			return int64(len(key) + len("null"))
		case len(ads) == 0:
			return int64(len(key) + len("[]"))
		}
		return int64(len(key) + 4*len(ads))
	}
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
	check("a first sighting", 0)
	c.Put("a", 0, ad(1)) // the second: stored, its ad interned
	check("its second sighting", owned("a", ad(1)), a1)
	c.Put("bb", 0, nil)
	check("a ghost beside it", owned("a", ad(1)), a1)
	c.Put("a", 0, ad(1000000)) // replaced by a longer ad, interned at once
	check("replace", owned("a", ad(1000000)), big)
	ccc := []adindex.Ad{a3, big}
	c.Put("ccc", 0, ccc) // a ghost in a's spent ring slot: bb's stays
	check("a second ghost", owned("a", ad(1000000)), big)
	c.Put("ccc", 0, ccc) // stored, demoting a; big is held once
	check("sharing", owned("a", ad(1000000))+owned("ccc", ccc), a3, big)
	c.Get("a", 1) // outdated: stays until refreshed
	check("invalidate", owned("a", ad(1000000))+owned("ccc", ccc), a3, big)
	c.Put("a", 1, []adindex.Ad{}) // promoted, demoting ccc
	check("refresh", owned("a", []adindex.Ad{})+owned("ccc", ccc), a3, big)
	c.Put("bb", 0, nil) // stored, demoting a, which evicts ccc from probation
	check("evict a demoted reply", owned("a", []adindex.Ad{})+owned("bb", nil))
	if c.ghostLen() != 0 {
		t.Errorf("%d ghosts after every ghost's second sighting, want 0", c.ghostLen())
	}
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
		checkGhosts(t, i, &s.ghosts)
		s.mu.Unlock()
	}
	checkFragments(t, c)
}

// checkGhosts holds a shard's ghost set to its ring: each entry names a
// distinct ring slot and is reachable from its fingerprint's home without
// crossing an empty position, and the live count is the number of entries.
func checkGhosts(t *testing.T, shard int, g *ghostRing) {
	t.Helper()
	mask := len(g.table) - 1
	seen := map[int32]bool{}
	for i, e := range g.table {
		if e == 0 {
			continue
		}
		if e < 1 || int(e) > len(g.fps) || seen[e] {
			t.Errorf("shard %d: table position %d holds ring slot %d (duplicate %v)", shard, i, e-1, seen[e])
			continue
		}
		seen[e] = true
		for j := g.home(g.fps[e-1]); j != i; j = (j + 1) & mask {
			if g.table[j] == 0 {
				t.Errorf("shard %d: ring slot %d at position %d is cut off from its home by an empty position %d", shard, e-1, i, j)
				break
			}
		}
	}
	if len(seen) != g.live || g.live > len(g.fps) {
		t.Errorf("shard %d: %d ghosts in the table, %d counted, %d ring slots", shard, len(seen), g.live, len(g.fps))
	}
}

// checkFragments holds the fragment table to the entries: every entry
// holds its body in one form, every slot's count is the number of
// references the entries hold to it, a slot is free exactly when that is
// 0, a slot in use holds an ad's JSON, the ID index's positions in use
// point at slots in use of their ID, each reachable from its home without
// crossing an empty position, and the table's totals are the sums over its
// slots.
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
			if (ent.refs == nil) == (ent.body == nil) {
				t.Errorf("entry %q (protected %v): body %q, %d references", ent.key, ent.protected, ent.body, len(ent.refs))
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
	checkFragIndex(t, tb)
	if live != tb.live || bytes != tb.bytes {
		t.Errorf("table counts %d fragments of %d bytes, its slots hold %d of %d", tb.live, tb.bytes, live, bytes)
	}
}

// checkFragIndex holds a fragment table's ID index to its invariants:
// each position in use names a slot in use of its ID, each ID at most
// once, each reachable from its home without crossing an empty position,
// n the positions in use, at most three quarters of the table; and the
// lists from the IDs' newest fragments hold every fragment in use once,
// under its own ID, no two of one ID with equal bytes. The caller holds
// the table's lock.
func checkFragIndex(t *testing.T, tb *fragTable) {
	t.Helper()
	x := &tb.index
	mask := len(x.pos) - 1
	seen := map[uint64]bool{}
	listed := 0
	for i, p := range x.pos {
		if p.slot == 0 {
			continue
		}
		if slot := p.slot - 1; seen[p.id] || slot >= tb.slots {
			t.Errorf("index position %d: ID %d (seen before %v) names slot %d of %d", i, p.id, seen[p.id], slot, tb.slots)
		} else if ch, j := tb.at(slot); ch.refs[j] == 0 || ch.id[j] != p.id {
			t.Errorf("index position %d: ID %d names slot %d, which holds ad %d with %d references", i, p.id, slot, ch.id[j], ch.refs[j])
		}
		seen[p.id] = true
		contents := map[string]bool{}
		for s := p.slot; s != 0; { // the ID's list, from its newest
			ch, j := tb.at(s - 1)
			if ch.refs[j] == 0 || ch.id[j] != p.id || contents[string(ch.json[j])] || listed == tb.live {
				t.Errorf("ID %d lists slot %d, which holds ad %d with %d references (its bytes listed before: %v)", p.id, s-1, ch.id[j], ch.refs[j], contents[string(ch.json[j])])
				break
			}
			contents[string(ch.json[j])] = true
			listed++
			s = ch.next[j]
		}
		for j := x.home(p.id); j != i; j = (j + 1) & mask {
			if x.pos[j].slot == 0 {
				t.Errorf("index position %d: ID %d is cut off from its home by an empty position %d", i, p.id, j)
				break
			}
		}
	}
	if len(seen) != x.n || 4*x.n > 3*len(x.pos) {
		t.Errorf("index holds %d IDs, counts %d, in %d positions", len(seen), x.n, len(x.pos))
	}
	if listed != tb.live {
		t.Errorf("the IDs' lists hold %d fragments of %d in use", listed, tb.live)
	}
}

// TestCacheScanResistance: a working set asked three times survives a
// stream of queries that are never asked again — the one-off stream cycles
// through the ghost ring as fingerprints and never becomes an entry, so it
// neither displaces nor demotes the working set.
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
	if got := c.probationLen(); got != 0 || c.Len() != working || c.ghostLen() != 2*205 {
		t.Errorf("len %d with %d in probation, %d ghosts, want %d, none in probation and a full ring of %d ghosts", c.Len(), got, c.ghostLen(), working, 2*205)
	}
}

// TestCacheProbationHitPromotes: a first sighting is a ghost, no entry,
// which a Get misses; the second sighting stores the reply in protected,
// out of the way of the next new keys, where it hits. Once demoted to
// probation, a hit brings it back to protected.
func TestCacheProbationHitPromotes(t *testing.T) {
	c := NewCache(10, 1) // probation 2, protected 8
	c.Put("a", 0, ad(1))
	if prob, prot := segments(c); len(prob) != 0 || len(prot) != 0 || c.ghostLen() != 1 {
		t.Fatalf("a new key went to %v / %v with %d ghosts, want a ghost alone", prob, prot, c.ghostLen())
	}
	if _, ok := c.Get("a", 0); ok {
		t.Fatal("a ghost hit")
	}
	c.Put("a", 0, ad(1))
	if reply, ok := c.Get("a", 0); !ok || cachedAds(t, reply)[0].ID != 1 {
		t.Fatal("a repeat after the second sighting missed")
	}
	if prob, prot := segments(c); len(prob) != 0 || len(prot) != 1 || prot[0] != "a" || c.ghostLen() != 0 {
		t.Fatalf("after its repeat: probation %v, protected %v, %d ghosts, want a protected", prob, prot, c.ghostLen())
	}
	for _, key := range []string{"b", "c", "d"} { // three first sightings: ghosts
		c.Put(key, 0, ad(2))
	}
	if prob, prot := segments(c); len(prob) != 0 || fmt.Sprint(prot) != "[a]" || c.ghostLen() != 3 {
		t.Errorf("probation %v, protected %v, %d ghosts, want [] and [a] and 3", prob, prot, c.ghostLen())
	}
	for i := 1; i <= 8; i++ { // the eighth overflows protected: a is demoted
		store(c, fmt.Sprintf("k%d", i), 0, ad(uint64(i)))
	}
	if prob, _ := segments(c); fmt.Sprint(prob) != "[a]" {
		t.Fatalf("probation %v, want a demoted", prob)
	}
	if reply, ok := c.Get("a", 0); !ok || cachedAds(t, reply)[0].ID != 1 {
		t.Fatal("a demoted entry missed")
	}
	if prob, prot := segments(c); fmt.Sprint(prob) != "[k1]" || prot[0] != "a" {
		t.Errorf("after a's hit: probation %v, protected %v, want a promoted and k1 demoted", prob, prot)
	}
	checkSegments(t, c)
}

// TestCacheProtectedOverflowDemotes: promoting into a full protected
// segment demotes its least-recently-used entry to the head of probation,
// where a hit brings it back; a first sighting does not touch probation,
// and probation's own overflow evicts its least-recently-used entry.
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
	if prob, _ := segments(c); fmt.Sprint(prob) != "[k0]" {
		t.Fatalf("probation %v, want the demoted k0 alone beside a ghost", prob)
	}
	if _, ok := c.Get("k0", 0); !ok {
		t.Fatal("demoted k0 missed")
	}
	prob, prot = segments(c)
	if fmt.Sprint(prob) != "[k1]" || prot[0] != "k0" {
		t.Errorf("after k0's hit: probation %v, protected %v: want k0 back and k1 demoted", prob, prot)
	}
	store(c, "n1", 0, ad(10)) // demotes k2
	store(c, "n2", 0, ad(11)) // demotes k3: probation overflows and k1 goes
	if prob, _ := segments(c); fmt.Sprint(prob) != "[k3 k2]" {
		t.Errorf("probation %v, want [k3 k2]", prob)
	}
	if _, ok := c.Get("k1", 0); ok {
		t.Error("k1 survived probation's overflow")
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
	if prob, _ := segments(c); fmt.Sprint(prob) != "[x]" {
		t.Fatalf("probation %v, want x demoted", prob)
	}
	check("demotion", 5)
	store("n1", 0, nil)     // demotes y
	store("n2", 0, pick(7)) // demotes k1, and probation evicts x: 1 goes, 2 and 3 stay with y
	check("eviction", 5)

	c.Get("y", 1) // outdated
	put("y", 1, pick(2, 8))
	check("refresh of an outdated entry", 4) // 3 and 4 go, 8 takes a freed slot
	c.Put("y", 0, pick(9))                   // an older view's put: refused
	check("refused put", 4)
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
	if n, b := c.sharedAds(); n != 0 || b != 0 || c.ads.index.n != 0 || len(c.ads.free) != int(c.ads.slots) {
		t.Errorf("table after its last reference: %d ads of %d bytes, %d IDs, %d of %d slots free", n, b, c.ads.index.n, len(c.ads.free), c.ads.slots)
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
// replies leave 20 000 ghosts, fingerprints in the shard's fixed ring, and
// no entry, no byte and no ad in the shared table; a first sighting
// allocates nothing. The second sighting of each stores its reply as
// fragments, which a hit returns byte for byte.
func TestCacheFirstSightingsHoldNoBodies(t *testing.T) {
	const n = 20_000
	c := NewCache(5*n, 1) // the ring holds every ghost
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
		body, spans := appendAdsJSON(nil, nil, list)
		bodies[i] = Cached{Matched: len(list), Body: body, Spans: spans}
	}
	body := func(i int) Cached { return bodies[i%len(bodies)] }
	if b := len(body(0).Body); b < 7_000 || b > 9_000 {
		t.Fatalf("a reply of %d bytes, want about 8 KB", b)
	}
	keys := make([][]byte, n)
	var keyBytes int64
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "b\x00query %d", i)
		keyBytes += int64(len(keys[i]))
	}
	put := func(i int) { cachePut(c, keys[i], fingerprint(keys[i]), 0, body(i)) }
	next := 0
	if allocs := testing.AllocsPerRun(n-1, func() { put(next); next++ }); allocs != 0 {
		t.Errorf("a first sighting costs %.2f allocations, want 0", allocs)
	}
	if shared, sharedBytes := c.sharedAds(); c.Bytes() != 0 || c.Len() != 0 || shared != 0 || sharedBytes != 0 || c.ghostLen() != n {
		t.Fatalf("after %d first sightings: %d bytes in %d entries, %d shared ads of %d bytes, %d ghosts; want ghosts alone", n, c.Bytes(), c.Len(), shared, sharedBytes, c.ghostLen())
	}
	for i := 0; i < n; i++ {
		put(i)
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
		if reply, ok := c.Get(string(keys[i]), 0); !ok || !bytes.Equal(reply.Body, body(i).Body) {
			t.Fatalf("%s: hit %v, body %.80s", keys[i], ok, reply.Body)
		}
	}
	checkSegments(t, c)
}

// TestCacheFingerprintCollision: two keys that share a fingerprint share a
// ghost, so the second is stored on its first sighting — one sighting
// early — but under its own key: neither is ever served the other's reply.
func TestCacheFingerprintCollision(t *testing.T) {
	c := NewCache(10, 1)
	const fp = 0x5eed
	a, b := Cached{Matched: 1, Body: corpus.AppendAdsJSON(nil, ad(1))}, Cached{Matched: 1, Body: corpus.AppendAdsJSON(nil, ad(2))}
	get := func(key string) (Cached, bool) {
		_, reply, ok := cacheGet(c, nil, key, fp, 0, nil)
		return reply, ok
	}
	cachePut(c, "b\x00a", fp, 0, a) // a's ghost
	cachePut(c, "b\x00b", fp, 0, b) // b finds a's fingerprint: stored early
	if _, ok := get("b\x00a"); ok {
		t.Fatal("a hit on a key only ever seen once")
	}
	if reply, ok := get("b\x00b"); !ok || !bytes.Equal(reply.Body, b.Body) {
		t.Fatalf("the colliding key: hit %v, body %s, want its own reply %s", ok, reply.Body, b.Body)
	}
	cachePut(c, "b\x00a", fp, 0, a) // a's ghost again (b's took the first)
	if _, ok := get("b\x00a"); ok || c.ghostLen() != 1 {
		t.Fatalf("a served on its second sighting after its ghost was spent, or %d ghosts, want 1", c.ghostLen())
	}
	cachePut(c, "b\x00a", fp, 0, a)
	for key, want := range map[string]Cached{"b\x00a": a, "b\x00b": b} {
		if reply, ok := get(key); !ok || !bytes.Equal(reply.Body, want.Body) {
			t.Errorf("%q: hit %v, body %s, want %s", key, ok, reply.Body, want.Body)
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
// benchmark streams' frequency law (200/rank), each capped at 12 words as
// those streams are; queries[i] is wl.Queries[i] as text.
func hotQueries(corp *corpus.Corpus, n int, seed int64) (wl *workload.Workload, queries []string) {
	wl = workload.Generate(corp, workload.GenOptions{NumQueries: n, ZipfS: 1, MaxFreq: 200, Seed: seed})
	queries = make([]string, len(wl.Queries))
	for i := range wl.Queries {
		words := wl.Queries[i].Words
		queries[i] = strings.Join(words[:min(len(words), 12)], " ")
	}
	return wl, queries
}

// BenchmarkSearchMiss is BenchmarkSearchHit's server and stream with the
// reply cache off: every request matches, copies its ads out and encodes
// them.
func BenchmarkSearchMiss(b *testing.B) {
	corp := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	s := New(adindex.Build(corp.Ads, adindex.Options{}), Config{CacheEntries: -1})
	wl, queries := hotQueries(corp, 20_000, 2)
	reqs := make(map[*workload.Query]*http.Request, len(queries))
	w := &reusedWriter{h: http.Header{}}
	for i, q := range queries {
		reqs[&wl.Queries[i]] = httptest.NewRequest("GET", searchTarget(q, "broad"), nil)
	}
	stream := wl.Stream(1<<16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleSearch(w, reqs[stream[i%len(stream)]])
	}
	b.StopTimer()
	if hits, _, _ := s.cache.Stats(); hits != 0 || w.code != 0 {
		b.Fatalf("%d cache hits, status %d: the runs did not measure the miss path", hits, w.code)
	}
}

// TestCacheSharesEveryFragmentOfAnID: a reply that holds two records of
// one ad ID (one advertiser, two matching phrases) shares both fragments
// with every other reply that holds them, whichever of the two was
// interned last: eight such replies leave two fragments, not sixteen. A
// third content of the ID, and the release of the fragments in any
// order, keep the ID's list whole.
func TestCacheSharesEveryFragmentOfAnID(t *testing.T) {
	shoes := adindex.NewAd(7, "red shoes", adindex.Meta{BidMicros: 5})
	boots := adindex.NewAd(7, "red boots", adindex.Meta{BidMicros: 5})
	hats := adindex.NewAd(7, "red hats", adindex.Meta{BidMicros: 5})
	reply := []adindex.Ad{shoes, boots}
	c := NewCache(32, 1)
	for i := 0; i < 8; i++ {
		key := fmt.Sprint("k", i)
		c.Put(key, 0, reply)
		c.Put(key, 0, reply)
	}
	want := int64(len(shoes.AppendJSON(nil)) + len(boots.AppendJSON(nil)))
	if n, b := c.sharedAds(); n != 2 || b != want {
		t.Fatalf("eight replies holding ID 7 twice: %d fragments of %d bytes, want 2 of %d", n, b, want)
	}
	c.Put("h", 0, []adindex.Ad{hats, shoes})
	c.Put("h", 0, []adindex.Ad{hats, shoes})
	if n, _ := c.sharedAds(); n != 3 {
		t.Fatalf("a third content of ID 7: %d fragments, want 3", n)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprint("k", i)
		if got, ok := c.Get(key, 0); !ok || string(got.Body) != string(corpus.AppendAdsJSON(nil, reply)) {
			t.Fatalf("%s: hit %v, body %s", key, ok, got.Body)
		}
	}
	// Refresh every entry to a reply without ads: the oldest fragment goes
	// with the last k entry, the newest (hats) last of all.
	for _, key := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "h"} {
		c.Get(key, 1)
		c.Put(key, 1, nil)
		checkSegments(t, c)
	}
	if n, b := c.sharedAds(); n != 0 || b != 0 || c.ads.index.n != 0 || len(c.ads.free) != int(c.ads.slots) {
		t.Errorf("table after its last reference: %d ads of %d bytes, %d IDs, %d of %d slots free", n, b, c.ads.index.n, len(c.ads.free), c.ads.slots)
	}
}

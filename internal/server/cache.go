// Result cache: a sharded LRU over encoded replies, keyed by the normalized
// form of the query and stamped with the index epoch they were computed at.
//
// What an entry is. A cached reply is bytes: the exact JSON of the reply's
// "ads" array, after Config.Selection, plus the two envelope facts that are
// not in that array (the pre-selection match count and the word-cutoff
// flag). A hit splices the body into the response and never touches an Ad,
// the auction or encoding/json. Selection is a pure function of the query's
// words (all the key holds) and the server's immutable Config, so the
// post-selection body is as cacheable as the raw matches were. Bodies are
// exact-size, pointer-free and immutable once stored: readers only copy
// from them, so a slice handed out by Get stays valid after its entry is
// evicted or refreshed.
//
// Key choice. Broad match is insensitive to word order and duplicate
// multiplicity beyond folding ("cheap used books" and "used cheap books"
// retrieve the same ads), so broad results are keyed by the canonical word
// set (textnorm.SetKey of textnorm.WordSet) — all surface orderings of a
// query share one cache entry. Exact and phrase match are order-sensitive,
// so those are keyed by the normalized token sequence instead. The key is
// that canonical string itself, not a hash of it: two queries share an
// entry only if they are the same query, so a collision can never serve
// one advertiser's ads for another's keywords. The handler builds it in a
// pooled buffer and looks it up as bytes; it becomes a string only when an
// entry is first stored. Under the power-law query frequencies of the
// paper's workload model (§V) a small cache keyed this way absorbs most of
// the head.
//
// Invalidation. The match rule is words(P) ⊆ Q, so a write of word set W
// can change the answer of Q only when Q ⊇ W. An entry carries the epoch of
// the adindex.View that computed it; a lookup presents
// View.ChangedAt(query words), the newest epoch at which a write the query
// could see stamped one of its words, and the entry is served when its
// epoch is at least that. A write therefore costs the cached queries that
// contain its rarest word (plus those whose words share that word's slot)
// and no others, in O(1) with no traversal; a not-found delete, a fold,
// Optimize, ApplyMapping and an adaptation round cost nothing. A query long
// enough for the MaxQueryWords cutoff is the exception (its answer depends
// on document frequencies): ChangedAt gives it the view's own epoch, so any
// epoch change drops it. A present entry that is too old is a miss and an
// invalidation; it stays where it is and the put that follows the miss
// refreshes it in place. An entry newer than the caller's view is served if
// new enough and never replaced by an older computation.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adindex"
	"adindex/internal/corpus"
)

// Cached is one cached reply.
type Cached struct {
	// Matched is the number of ads the query matched, before selection.
	Matched int
	// Cutoff reports that the query was reduced to MaxQueryWords words.
	Cutoff bool
	// Body is the JSON of the reply's "ads" array. Read-only.
	Body []byte
}

// cacheEntry is one cached reply under its key and epoch.
type cacheEntry struct {
	key   string
	epoch uint64
	Cached
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.Body)) }

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element // value: *cacheEntry
	lru   *list.List               // front = most recent
	bytes int64                    // key + body bytes of the live entries
}

// remove unlinks el; the caller holds the lock.
func (s *cacheShard) remove(el *list.Element) {
	ent := s.lru.Remove(el).(*cacheEntry)
	delete(s.items, ent.key)
	s.bytes -= ent.size()
}

// Cache is a sharded LRU result cache, safe for concurrent use. Sharding
// by key hash keeps lock contention low when many goroutines hit it.
type Cache struct {
	shards []*cacheShard
	mask   uint32

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// NewCache builds a cache holding up to entries results across `shards`
// shards (both rounded up to useful minimums; shards is rounded up to a
// power of two). entries <= 0 returns a nil cache, on which all methods
// are no-op misses — callers need no special "caching disabled" path.
func NewCache(entries, shards int) *Cache {
	if entries <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (entries + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			items: make(map[string]*list.Element),
			lru:   list.New(),
		}
	}
	return c
}

// cacheKeyBytes is a key in either form it travels in: the handler builds
// keys in a pooled []byte, stored entries and outside callers hold strings.
type cacheKeyBytes interface{ string | []byte }

// shardOf picks the key's shard by its fingerprint.
func shardOf[K cacheKeyBytes](c *Cache, key K) *cacheShard {
	return c.shards[uint32(fingerprint(key))&c.mask]
}

// Get returns the cached reply for key if present and computed at
// changedAt or later (adindex.View.ChangedAt of the query's words). A
// present entry that is older counts as an invalidation and a miss.
func (c *Cache) Get(key string, changedAt uint64) (Cached, bool) {
	return cacheGet(c, key, changedAt)
}

// cacheGet is Get for either key form; a []byte key is looked up without
// being converted to a string.
func cacheGet[K cacheKeyBytes](c *Cache, key K, changedAt uint64) (Cached, bool) {
	if c == nil {
		return Cached{}, false
	}
	s := shardOf(c, key)
	s.mu.Lock()
	el, ok := s.items[string(key)]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Cached{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch < changedAt {
		// Left in place, neither promoted nor removed: the caller's put
		// refreshes it, and if none comes (a truncated answer is not
		// stored) it ages out of the LRU like any unused entry.
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return Cached{}, false
	}
	reply := ent.Cached // copied under the lock: a refresh rewrites the entry
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return reply, true
}

// Put stores ads, encoded, as the reply computed for key on a view of the
// given epoch: the form for callers that hold ads rather than a reply body.
func (c *Cache) Put(key string, epoch uint64, ads []adindex.Ad) {
	cachePut(c, key, epoch, Cached{Matched: len(ads), Body: corpus.AppendAdsJSON(nil, ads)})
}

// cachePut stores a reply computed at the given epoch (the Epoch of the
// View that computed it), evicting the shard's least-recently-used entry if
// the shard is full. If the key is already present its entry is refreshed
// in place — same map slot, same list element, only a new body — unless it
// holds a reply from a newer epoch, which a reader still on an old view must
// not replace. The cache keeps its own exact-size copy of the body (and of
// the key, the first time), so both may live in the caller's reused
// buffers. A put racing a concurrent mutation is harmless: the entry says
// which epoch its reply was actually computed at, and a Get that knows of a
// later change to the query's words passes it over.
func cachePut[K cacheKeyBytes](c *Cache, key K, epoch uint64, reply Cached) {
	if c == nil {
		return
	}
	body := make([]byte, len(reply.Body))
	copy(body, reply.Body)
	reply.Body = body
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.epoch > epoch {
			return
		}
		s.bytes += int64(len(body) - len(ent.Body))
		ent.epoch, ent.Cached = epoch, reply
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.cap {
		s.remove(s.lru.Back())
	}
	ent := &cacheEntry{key: string(key), epoch: epoch, Cached: reply}
	s.items[ent.key] = s.lru.PushFront(ent)
	s.bytes += ent.size()
}

// Len returns the number of entries held (entries a write has outdated are
// included until a put refreshes them or the LRU evicts them).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the key and body bytes the entries hold (the same entries
// Len counts).
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit/miss/invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

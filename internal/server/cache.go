// Result cache: a sharded LRU over encoded replies, keyed by the normalized
// form of the query and tagged with the index mutation epoch.
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
// evicted or replaced.
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
// entry is stored. Under the power-law query frequencies of the paper's
// workload model (§V) a small cache keyed this way absorbs most of the
// head.
//
// Invalidation. Entries carry the index epoch (adindex.Index.Epoch) at
// which their result was computed. A lookup presents the current epoch; an
// entry from an older epoch is stale — it is dropped and counts as an
// invalidation, never served. This makes Insert/Delete/Optimize invalidate
// the whole cache in O(1) with no traversal and no coordination beyond the
// epoch read.
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

// Get returns the cached reply for key if present and computed at the
// given epoch. A present-but-stale entry is removed and counted as an
// invalidation (and a miss).
func (c *Cache) Get(key string, epoch uint64) (Cached, bool) {
	return cacheGet(c, key, epoch)
}

// cacheGet is Get for either key form; a []byte key is looked up without
// being converted to a string.
func cacheGet[K cacheKeyBytes](c *Cache, key K, epoch uint64) (Cached, bool) {
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
	if ent.epoch != epoch {
		s.remove(el)
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return Cached{}, false
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return ent.Cached, true
}

// Put stores ads, encoded, as the reply computed for key at the given
// epoch: the form for callers that hold ads rather than a reply body.
func (c *Cache) Put(key string, epoch uint64, ads []adindex.Ad) {
	cachePut(c, key, epoch, Cached{Matched: len(ads), Body: corpus.AppendAdsJSON(nil, ads)})
}

// cachePut stores a reply computed at the given epoch, evicting the
// shard's least-recently-used entry if the shard is full. If the key is
// already present the entry is replaced. The cache keeps its own exact-size
// copies of key and body, so both may live in the caller's reused buffers.
// A put racing a concurrent mutation is harmless in either direction: the
// entry is tagged with the epoch the result was actually computed at, so a
// Get at any other epoch discards it rather than serving it.
func cachePut[K cacheKeyBytes](c *Cache, key K, epoch uint64, reply Cached) {
	if c == nil {
		return
	}
	body := make([]byte, len(reply.Body))
	copy(body, reply.Body)
	reply.Body = body
	ent := &cacheEntry{key: string(key), epoch: epoch, Cached: reply}
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[ent.key]; ok {
		s.remove(el)
	} else if s.lru.Len() >= s.cap {
		s.remove(s.lru.Back())
	}
	s.items[ent.key] = s.lru.PushFront(ent)
	s.bytes += ent.size()
}

// Len returns the number of live entries (stale entries not yet touched by
// a Get are included — they are invalidated lazily).
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

// Bytes returns the key and body bytes the live entries hold (the same
// entries Len counts).
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

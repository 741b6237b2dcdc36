// Result cache: a sharded, segmented LRU over encoded replies, keyed by the
// normalized form of the query and stamped with the index epoch they were
// computed at.
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
// Optimize, ApplyMapping and an adaptation tick cost nothing. A query long
// enough for the MaxQueryWords cutoff is the exception (its answer depends
// on document frequencies): ChangedAt gives it the view's own epoch, so any
// epoch change drops it. A present entry that is too old is a miss and an
// invalidation; it stays where it is and the put that follows the miss
// refreshes it in place. An entry newer than the caller's view is served if
// new enough and never replaced by an older computation.
//
// Admission. Each shard is a segmented LRU (SLRU). A new reply enters a
// probation segment holding at most a fifth of the shard; a repeat — a hit,
// or the refresh of an outdated entry, which is the put after a miss on a
// present key — moves it to the protected segment, which holds the rest.
// Protected overflow demotes that segment's least-recently-used entry to
// probation's head, and probation overflow evicts. A query seen once (the
// long tail of a query stream, and all of a stream of distinct queries)
// therefore cycles through probation and never displaces the working set,
// and costs at most a fifth of the capacity in memory: at the default 65 536
// entries the 300k distinct queries of http-cold filled the plain LRU with
// 127 MB of replies that its closed loop never hit. Admitting on second
// sight instead (a doorkeeper that stores a reply only when its key was
// asked before) keeps one-off replies out entirely, but charges every
// working-set query a second miss.
// Replaying the first 400k requests of the http-hot and http-churn read
// streams of seeds 1 and 2 (20k distinct queries each, no writes), the plain
// LRU and this SLRU missed the same 20 000 requests in the same order
// (0.050), the doorkeeper twice as many (0.100). Probation has to hold a new
// reply until its first repeat arrives: of the shares 1/3, 1/5, 1/10 and
// 1/20, one fifth is the smallest that kept the miss sequence identical
// (1/10 missed 0.055, 1/20 0.116). It is a constant, not an option: the
// working set and the tail are properties of the traffic, not of a
// deployment.
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

// probationShare is the reciprocal of the share of a shard's capacity the
// probation segment holds (see "Admission" above).
const probationShare = 5

// cacheEntry is one cached reply under its key and epoch.
type cacheEntry struct {
	key       string
	epoch     uint64
	protected bool // in the protected segment, else in probation
	Cached
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.Body)) }

type cacheShard struct {
	mu           sync.Mutex
	cap          int                      // entries across both segments
	probationCap int                      // ⌈cap/probationShare⌉
	items        map[string]*list.Element // value: *cacheEntry
	probation    list.List                // never repeated (or demoted); front = most recent
	protected    list.List                // repeated; front = most recent
	bytes        int64                    // key + body bytes of the live entries
}

// evict drops the least-recently-used probation entry; the caller holds
// the lock.
func (s *cacheShard) evict() {
	ent := s.probation.Remove(s.probation.Back()).(*cacheEntry)
	delete(s.items, ent.key)
	s.bytes -= ent.size()
}

// repeat records a repeat of the entry at el: a protected entry moves to its
// segment's front; a probation entry is promoted to the protected front,
// and if that overflows the protected segment its least-recently-used entry
// is demoted to probation's front (probation lost one entry and gains one,
// so it cannot overflow). The caller holds the lock.
func (s *cacheShard) repeat(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	if ent.protected {
		s.protected.MoveToFront(el)
		return
	}
	s.probation.Remove(el)
	ent.protected = true
	s.items[ent.key] = s.protected.PushFront(ent)
	if s.protected.Len() > s.cap-s.probationCap {
		old := s.protected.Remove(s.protected.Back()).(*cacheEntry)
		old.protected = false
		s.items[old.key] = s.probation.PushFront(old)
	}
}

// Cache is a sharded SLRU result cache, safe for concurrent use. Sharding
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
			cap:          perShard,
			probationCap: (perShard + probationShare - 1) / probationShare,
			items:        make(map[string]*list.Element),
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
		// Left in place, not touched: the caller's put refreshes it, and
		// if none comes (a truncated answer is not stored) it ages out of
		// its segment like any unused entry.
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return Cached{}, false
	}
	reply := ent.Cached // copied under the lock: a refresh rewrites the entry
	s.repeat(el)
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
// View that computed it) at the front of probation, evicting probation's
// least-recently-used entry if that segment is full. If the key is already
// present its entry is refreshed in place — same map slot, only a new body
// — and counts as a repeat, unless it holds a reply from a newer epoch,
// which a reader still on an old view must not replace. The cache keeps its
// own exact-size copy of the body (and of the key, the first time), so both
// may live in the caller's reused buffers. A put racing a concurrent
// mutation is harmless: the entry says which epoch its reply was actually
// computed at, and a Get that knows of a later change to the query's words
// passes it over.
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
		s.repeat(el)
		return
	}
	if s.probation.Len() >= s.probationCap {
		s.evict()
	}
	ent := &cacheEntry{key: string(key), epoch: epoch, Cached: reply}
	s.items[ent.key] = s.probation.PushFront(ent)
	s.bytes += ent.size()
}

// Len returns the number of entries held in both segments (entries a write
// has outdated are included until a put refreshes them or they are
// evicted).
func (c *Cache) Len() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() + s.protected.Len() })
}

// probationLen returns the number of entries in probation: never repeated
// since they were stored, or demoted since they last were.
func (c *Cache) probationLen() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() })
}

// count sums n over the shards, each read under its lock.
func (c *Cache) count(n func(*cacheShard) int) int {
	if c == nil {
		return 0
	}
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += n(s)
		s.mu.Unlock()
	}
	return total
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

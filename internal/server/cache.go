// Result cache: a sharded, segmented LRU over encoded replies, keyed by the
// normalized form of the query and stamped with the index epoch they were
// computed at.
//
// What an entry is. A cached reply is the exact JSON of the reply's "ads"
// array, after Config.Selection, plus the two envelope facts that are not
// in that array (the pre-selection match count and the word-cutoff flag).
// A hit writes the array into the response and never touches an Ad, the
// auction or encoding/json. Selection is a pure function of the query's
// words (all the key holds) and the server's immutable Config, so the
// post-selection array is as cacheable as the raw matches were.
//
// A stored reply is not held whole. Broad match makes the replies to a
// power-law query stream share most of their ads (one bid on a few words
// matches every query that contains them): at the end of an http-hot run
// 20 000 stored replies held 1.5 M ad objects, 198 MB, of only 47 081
// distinct ads, 7.0 MB. So the cache owns one table of encoded ads, each
// the exact bytes corpus.(*Ad).AppendJSON writes, stored once, and a
// stored entry is its body length and the uint32 numbers of its ads'
// fragments, in order ("null" and "[]" stay copies). A fragment counts
// the entries that reference it, and its slot is freed for reuse when the
// count reaches zero. The table is keyed by ad ID, and two replies share a
// fragment only when its bytes are equal: an ID re-inserted with other
// content gets a fragment of its own, so sharing never changes a byte of a
// reply. The references are numbers, not pointers, on purpose: in a
// prototype with []*fragment the collector traced 1.5 M pointers per cycle
// on http-hot, and its CPU time went from 0.2 to 1.3 s.
//
// Second-sight admission. A key's first put stores no reply but a ghost
// in probation: the key and its epoch. A Get that finds a ghost is a plain
// miss (no invalidation; the ghost stays put), and the put after it
// interns the reply's ads (split at adSep) and promotes the entry, as the
// refresh of an outdated entry does. A query asked once costs its key and
// no table work; every distinct query misses once more, and no more:
// replaying the first 400k requests of the http-hot stream of seeds 1 and
// 2 through a default-sized cache, misses went 20 000 → 40 000 (0.050 →
// 0.100), and none missed a third time (TestCacheAdmissionReplay). End to
// end (seed 1, ten pairs, 2 vCPUs) rss_mb on http-hot went 210 → 95 MiB,
// the start's own peak: keeping each first reply as a copy until its
// repeat had held about 13 k bodies of 8 KB at the height of warm-up.
// p50_rel, p90_rel and qps_rel moved 1.375 → 1.377, 2.56 → 2.64 and
// 0.733 → 0.722, inside their bounds. Interning every reply at its first
// put gave the same rss_mb, but a table lookup per ad on every miss:
// http-cold's p90_rel rose 22–24 %.
//
// A hit appends the entry's body to the caller's buffer while it holds the
// entry's shard lock: "[", the fragments separated by commas and "]", or
// the copy of a body without ads. The entry pins its fragments — none of
// them reaches a count of zero while it references them — so an eviction
// in another shard never frees a slot a hit is reading, and a hit takes no
// table lock. Slots live in fixed-size chunks that never move. Nothing a
// hit returns refers into the cache: the body is the caller's copy.
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
// Segments. Each shard is a segmented LRU: probation holds at most a fifth
// of it, protected the rest. A new key enters probation; a repeat (its
// second sighting, a hit on a demoted entry, a refresh) moves it to
// protected, whose overflow demotes its least-recently-used entry,
// fragments and all, to probation's head; probation's overflow evicts its
// least-recently-used entry, ghost or demoted. So one-off queries cycle
// through probation as ghosts and never displace the working set (at the
// default 65 536 entries, http-cold's 300k distinct queries filled a
// plain LRU with 127 MB of replies never hit). A fifth holds every ghost
// of the replay above until its second sighting (when probation held
// replies, 1/10 missed 0.055 of it and 1/20 0.116). It is a constant, not
// an option: the working set and the tail are properties of the traffic.
package server

import (
	"bytes"
	"container/list"
	"slices"
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
	// Body is the JSON of the reply's "ads" array.
	Body []byte
}

// adSep separates two ads in an encoded array: Ad.AppendJSON begins an ad
// with {"ID":, and inside a JSON string a quote is always escaped, so the
// sequence occurs nowhere else.
var adSep = []byte(`,{"ID":`)

// adID reads the ID an encoded ad begins with: Ad.AppendJSON writes it
// first, as {"ID":<digits>,.
func adID(ad []byte) uint64 {
	var id uint64
	for _, b := range ad[len(`{"ID":`):] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + uint64(b-'0')
	}
	return id
}

// fragChunkBits sizes the chunks fragment slots are allocated in: 1 024
// slots each.
const (
	fragChunkBits = 10
	fragChunkMask = 1<<fragChunkBits - 1
)

// fragChunk holds 1 024 fragment slots, each an encoded ad the cache's
// entries share, column by column: a hit reads only json.
type fragChunk struct {
	json [1 << fragChunkBits][]byte // the ad as Ad.AppendJSON writes it; nil on a free slot
	id   [1 << fragChunkBits]uint64
	refs [1 << fragChunkBits]uint32 // entries referencing it; 0 on a free slot
}

// fragTable is the cache's one table of encoded ads.
type fragTable struct {
	// chunks is loaded by hits without mu. It is replaced, never written
	// in place, when it grows, and a chunk never moves.
	chunks atomic.Pointer[[]*fragChunk]

	mu    sync.Mutex
	byID  map[uint64]uint32 // the newest fragment of each ID in use
	free  []uint32          // freed slots, reused before new ones
	slots uint32            // slots handed out, free ones included
	live  int               // fragments in use
	bytes int64             // their JSON bytes
}

// at returns the chunk of slot i and its position there. The caller holds
// mu, or the shard lock of an entry that references the slot.
func (t *fragTable) at(i uint32) (*fragChunk, uint32) {
	return (*t.chunks.Load())[i>>fragChunkBits], i & fragChunkMask
}

// intern returns the fragment of ad id whose bytes are b with one more
// reference, a new one if no fragment of id holds exactly b. The caller
// holds mu.
func (t *fragTable) intern(id uint64, b []byte) uint32 {
	if i, ok := t.byID[id]; ok {
		if c, j := t.at(i); bytes.Equal(c.json[j], b) {
			c.refs[j]++
			return i
		}
	}
	i := t.alloc()
	c, j := t.at(i)
	c.id[j], c.refs[j], c.json[j] = id, 1, bytes.Clone(b)
	t.byID[id] = i // new replies carry the newest content
	t.live++
	t.bytes += int64(len(b))
	return i
}

// alloc returns a free slot. The caller holds mu.
func (t *fragTable) alloc() uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		return i
	}
	i := t.slots
	if i&fragChunkMask == 0 {
		var chunks []*fragChunk
		if p := t.chunks.Load(); p != nil {
			chunks = *p
		}
		chunks = append(chunks, new(fragChunk))
		t.chunks.Store(&chunks)
	}
	t.slots++
	return i
}

// release drops one reference to each fragment of refs and frees the slots
// no entry references any more.
func (t *fragTable) release(refs []uint32) {
	if refs == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range refs {
		c, j := t.at(i)
		if c.refs[j]--; c.refs[j] > 0 {
			continue
		}
		if k, ok := t.byID[c.id[j]]; ok && k == i {
			delete(t.byID, c.id[j])
		}
		t.live--
		t.bytes -= int64(len(c.json[j]))
		c.json[j] = nil
		t.free = append(t.free, i)
	}
}

// internBody returns the fragments of the ads of body, an encoded array
// that holds at least one, in order, each with one reference more, and then
// drops one reference to each fragment of drop: a refresh keeps the
// fragments its old reply shares with the new one.
func (t *fragTable) internBody(body []byte, drop []uint32) []uint32 {
	ads := body[1 : len(body)-1] // within the brackets
	refs := make([]uint32, 0, bytes.Count(ads, adSep)+1)
	t.mu.Lock()
	for len(ads) > 0 {
		n := bytes.Index(ads, adSep)
		if n < 0 {
			n = len(ads)
		}
		refs = append(refs, t.intern(adID(ads[:n]), ads[:n]))
		ads = ads[min(n+1, len(ads)):] // past the ','
	}
	t.mu.Unlock()
	t.release(drop)
	return refs
}

// holdsAds reports whether body, an encoded ads array, holds an ad: it is
// neither null nor [].
func holdsAds(body []byte) bool { return len(body) > 2 && body[0] == '[' }

// probationShare is the reciprocal of the share of a shard's capacity the
// probation segment holds (see "Segments" above).
const probationShare = 5

// cacheEntry is one cached key under its epoch. A ghost is a key seen
// once: it holds no reply, and the put after its next miss stores one. A
// reply that holds ads is held as their fragments, in order (refs), and its
// length (bodyLen); one without ("null", "[]") as a copy (body).
type cacheEntry struct {
	key       string
	epoch     uint64
	protected bool // in the protected segment, else in probation
	ghost     bool // a first sighting: no reply, always in probation
	matched   int
	cutoff    bool
	body      []byte
	bodyLen   int
	refs      []uint32
}

// size is what the entry owns: its key, a body it keeps and 4 bytes per
// reference (the fragments are the table's).
func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.body) + 4*len(e.refs)) }

// setBody makes the reply encoded in body the entry's, its ads as
// fragments, and releases the fragments of the reply it replaces. The
// caller holds the entry's shard lock.
func (e *cacheEntry) setBody(body []byte, t *fragTable) {
	drop := e.refs
	e.body, e.bodyLen, e.refs = nil, len(body), nil
	if holdsAds(body) {
		e.refs = t.internBody(body, drop)
		return
	}
	e.body = bytes.Clone(body)
	t.release(drop)
}

// appendBody appends the entry's body to dst. The caller holds the entry's
// shard lock, which keeps its fragments referenced.
func (e *cacheEntry) appendBody(dst []byte, t *fragTable) []byte {
	if e.refs == nil {
		return append(dst, e.body...)
	}
	n := len(dst)
	dst = slices.Grow(dst, e.bodyLen)[:n+e.bodyLen]
	body := dst[n:]
	chunks := *t.chunks.Load()
	body[0] = '['
	p := 1
	for _, i := range e.refs {
		p += copy(body[p:], chunks[i>>fragChunkBits].json[i&fragChunkMask])
		body[p] = ','
		p++
	}
	body[p-1] = ']'
	return dst
}

type cacheShard struct {
	mu           sync.Mutex
	cap          int                      // entries across both segments
	probationCap int                      // ⌈cap/probationShare⌉
	items        map[string]*list.Element // value: *cacheEntry
	probation    list.List                // ghosts and demoted entries; front = most recent
	protected    list.List                // stored replies; front = most recent
	bytes        int64                    // what the live entries own (cacheEntry.size)
	ads          *fragTable               // the cache's
}

// evict drops the least-recently-used probation entry, a ghost or a
// demoted reply, and releases its fragments, if it holds any; the caller
// holds the lock.
func (s *cacheShard) evict() {
	ent := s.probation.Remove(s.probation.Back()).(*cacheEntry)
	delete(s.items, ent.key)
	s.bytes -= ent.size()
	s.ads.release(ent.refs)
}

// repeat records a repeat of the entry at el, which holds a reply: a
// protected entry moves to its segment's front; a probation entry is
// promoted to the protected front, and if that overflows the protected
// segment its least-recently-used entry is demoted to probation's front
// (probation lost one entry and gains one, so it cannot overflow). The
// caller holds the lock.
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
	// ads is the table of encoded ads the entries of every shard share.
	ads fragTable

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
	c.ads.byID = make(map[uint64]uint32)
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:          perShard,
			probationCap: (perShard + probationShare - 1) / probationShare,
			items:        make(map[string]*list.Element),
			ads:          &c.ads,
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
// present reply that is older counts as an invalidation and a miss; a ghost
// is a plain miss. The reply's Body is a new slice.
func (c *Cache) Get(key string, changedAt uint64) (Cached, bool) {
	_, reply, ok := cacheGet(c, nil, key, changedAt, nil)
	return reply, ok
}

// cacheGet is Get for either key form (a []byte key is looked up without
// being converted to a string) into the caller's buffer: on a hit it
// appends to dst what head appends for the entry's match count (nil:
// nothing), then the entry's body, both under the entry's shard lock, and
// the reply's Body is that body within dst.
func cacheGet[K cacheKeyBytes](c *Cache, dst []byte, key K, changedAt uint64, head func(dst []byte, matched int) []byte) ([]byte, Cached, bool) {
	if c == nil {
		return dst, Cached{}, false
	}
	s := shardOf(c, key)
	s.mu.Lock()
	el, ok := s.items[string(key)]
	if !ok || el.Value.(*cacheEntry).ghost {
		// A ghost is left in place, not touched: the caller's put stores
		// the reply.
		s.mu.Unlock()
		c.misses.Add(1)
		return dst, Cached{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch < changedAt {
		// Left in place, not touched: the caller's put refreshes it, and
		// if none comes (a truncated answer is not stored) it ages out of
		// its segment like any unused entry.
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return dst, Cached{}, false
	}
	if head != nil {
		dst = head(dst, ent.matched)
	}
	mark := len(dst)
	dst = ent.appendBody(dst, &c.ads)
	reply := Cached{Matched: ent.matched, Cutoff: ent.cutoff, Body: dst[mark:]}
	s.repeat(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return dst, reply, true
}

// Put puts ads, encoded, as the reply computed for key on a view of the
// given epoch (stored on the key's second sighting, as cachePut says): the
// form for callers that hold ads rather than a reply body.
func (c *Cache) Put(key string, epoch uint64, ads []adindex.Ad) {
	cachePut(c, key, epoch, Cached{Matched: len(ads), Body: corpus.AppendAdsJSON(nil, ads)})
}

// cachePut stores a reply computed at the given epoch (the Epoch of the
// View that computed it) on its key's second sighting. A new key enters
// probation's front as a ghost, evicting probation's least-recently-used
// entry if it is full. A present entry takes the reply in place, its ads
// interned, and counts as a repeat, unless it is from a newer epoch, which
// a reader still on an old view must not replace. The cache keeps neither
// the body nor the key the caller passed, so both may live in the caller's
// reused buffers. A put racing a mutation is harmless: the entry says which
// epoch its reply was computed at, and a Get that knows of a later change
// to the query's words passes it over.
func cachePut[K cacheKeyBytes](c *Cache, key K, epoch uint64, reply Cached) {
	if c == nil {
		return
	}
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.epoch > epoch {
			return
		}
		s.bytes -= ent.size()
		ent.epoch, ent.matched, ent.cutoff, ent.ghost = epoch, reply.Matched, reply.Cutoff, false
		ent.setBody(reply.Body, s.ads)
		s.bytes += ent.size()
		s.repeat(el)
		return
	}
	if s.probation.Len() >= s.probationCap {
		s.evict()
	}
	ent := &cacheEntry{key: string(key), epoch: epoch, ghost: true}
	s.items[ent.key] = s.probation.PushFront(ent)
	s.bytes += ent.size()
}

// Len returns the number of entries held in both segments (entries a write
// has outdated are included until a put refreshes them or they are
// evicted).
func (c *Cache) Len() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() + s.protected.Len() })
}

// probationLen returns the number of entries in probation: ghosts, and
// replies demoted since they were last asked.
func (c *Cache) probationLen() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() })
}

// ghostLen returns the number of ghosts: keys seen once, holding no reply.
func (c *Cache) ghostLen() int {
	return c.count(func(s *cacheShard) (n int) {
		for el := s.probation.Front(); el != nil; el = el.Next() {
			if el.Value.(*cacheEntry).ghost {
				n++
			}
		}
		return n
	})
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

// Bytes returns the bytes the entries own (the same entries Len counts):
// their keys, the bodies of replies without ads and 4 bytes per reference
// to a shared ad. The shared ads themselves
// are sharedAds'.
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

// sharedAds returns the fragment table's distinct ads and their bytes,
// each counted once however many entries reference it.
func (c *Cache) sharedAds() (ads int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.ads.mu.Lock()
	defer c.ads.mu.Unlock()
	return c.ads.live, c.ads.bytes
}

// Stats returns cumulative hit/miss/invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

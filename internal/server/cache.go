// Result cache: a sharded, segmented LRU over encoded replies, keyed by the
// normalized form of the query and stamped with the index epoch they were
// computed at.
//
// What an entry is. A cached reply is the exact JSON of the reply's "ads"
// array, after Config.Selection, plus the envelope fact that is not in
// that array (the pre-selection match count).
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
// count reaches zero. Two replies share a fragment only when its ID and
// its bytes are equal: an ID re-inserted with other content gets a
// fragment of its own, which becomes the ID's newest, so sharing never
// changes a byte of a reply. The fragments of one ID in use form a list
// from its newest, and a put compares an ad with each, so a reply that
// holds two records of one ID (one advertiser bidding on two phrases that
// both match) shares both. The references are numbers, not pointers, on
// purpose: in a prototype with []*fragment the collector traced 1.5 M
// pointers per cycle on http-hot, and its CPU time went from 0.2 to
// 1.3 s.
//
// A put is told where each ad lies. The encoder that wrote the reply
// records, per ad, its ID and where its bytes end (adindex.AdSpan:
// View.AppendMatchJSON for a miss encoded from the index, appendAdsJSON
// for replies built from Ads), and Cached carries those spans to the put,
// which never parses the body. The table finds an ID's newest fragment
// through fragIndex, an open-addressing table in one flat array that holds
// each ID beside its slot, at most three quarters full, so a probe
// compares IDs without loading a fragment and touches one cache line in
// the common case; then a byte compare, one for an ID with one fragment,
// decides whether the ad is shared. A put on
// http-churn is mostly a refresh — every write there outdates about 18
// stored replies, each of which the next miss puts back — and on the
// hot stream's working set a refresh went from 28 to 7 µs (medians of
// five runs, 2 vCPUs; BenchmarkCacheRefresh) when the put stopped
// splitting the body, reading each ad's ID out of its digits and finding
// it in a Go map. A put whose reply has no spans keeps its body
// as a copy; the server's never lacks them.
//
// Second-sight admission. A key's first put stores nothing but a ghost:
// the key's 64-bit fingerprint (the one the handler already computed for
// the quarantine) in its shard's ghost ring, a FIFO of fixed arrays
// allocated with the cache, with an open-addressing set over it. A first
// sighting therefore allocates nothing and holds no key, no entry and no
// list element. A Get never looks at ghosts: a key with no entry is a
// plain miss. The put after it finds the fingerprint, takes it out of the
// set, interns the reply's ads (as its spans locate them) and stores the
// entry at the protected front. A query asked once costs a ring slot and no table work;
// every distinct query misses once more, and no more: replaying the first
// 400k requests of the http-hot stream of seeds 1 and 2 through a
// default-sized cache, misses went 20 000 → 40 000 (0.050 → 0.100), and
// none missed a third time (TestCacheAdmissionReplay). The ring holds
// twice as many fingerprints as probation holds entries, because a
// promoted ghost's slot stays in the ring until the ring comes round to
// it; at one probation's worth that replay read 1 706 (seed 1) and 1 606
// (seed 2) third misses of 20 000. Two keys that share a fingerprint share a ghost: the second is
// stored a sighting early, under its own key and with its own epoch, so a
// collision never serves one key's reply for another
// (TestCacheFingerprintCollision). End to end (seed 1, ten pairs, 2 vCPUs)
// rss_mb on http-hot went 210 → 95 MiB when admission came in, the
// start's own peak: keeping each first reply as a copy until its repeat
// had held about 13 k bodies of 8 KB at the height of warm-up. Interning
// every reply at its first put gave the same rss_mb, but a table lookup
// per ad on every miss: http-cold's p90_rel rose 22–24 %. When ghosts were
// entries (a key string, a cacheEntry, a list element and a map slot
// each), their puts and evictions were 3.9 % of the server's CPU on
// http-cold, where every query is asked once.
//
// A hit appends the entry's body to the caller's buffer while it holds the
// entry's shard lock: "[", the fragments separated by commas and "]", or
// the copy of a body without ads, into room grown once for the entry's
// body length. It never touches the fragment index: the entry's numbers
// name the slots. The entry pins its fragments — none of them reaches a
// count of zero while it references them — so an eviction in another
// shard never frees a slot a hit is reading, and a hit takes no table
// lock. Slots live in fixed-size chunks that never move. Nothing a hit
// returns refers into the cache: the body is the caller's copy.
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
// Optimize, ApplyMapping and an adaptation tick cost nothing, whatever the
// query's length: every indexed word of it is walked, so no answer depends
// on document frequencies. A present entry that is too old is a miss and an
// invalidation; it stays where it is and the put that follows the miss
// refreshes it in place. An entry newer than the caller's view is served if
// new enough and never replaced by an older computation.
//
// Segments. Each shard is a segmented LRU over stored replies: probation
// holds at most a fifth of it, protected the rest. A second sighting
// enters protected; a repeat (a hit on a demoted entry, a refresh) moves
// an entry to protected's front; protected's overflow demotes its
// least-recently-used entry, fragments and all, to probation's head; and
// probation's overflow evicts its least-recently-used entry. So one-off
// queries cycle through the ghost ring as fingerprints and never displace
// the working set (at the default 65 536 entries, http-cold's 300k
// distinct queries filled a plain LRU with 127 MB of replies never hit),
// and a demoted entry keeps a fifth of the shard to be asked again in. A
// ring of two fifths of the shard holds every ghost of the replay above
// until its second sighting (when probation held ghosts and replies
// together, 1/10 missed 0.055 of it and 1/20 0.116). It is a constant,
// not an option: the working set and the tail are properties of the
// traffic.
package server

import (
	"bytes"
	"container/list"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"adindex"
)

// Cached is one cached reply.
type Cached struct {
	// Matched is the number of ads the query matched, before selection.
	Matched int
	// Body is the JSON of the reply's "ads" array.
	Body []byte
	// Spans locate the ads of Body, one per ad, in order, for a put: the
	// encoder that wrote the body records them (View.AppendMatchJSON,
	// appendAdsJSON). A put without them keeps Body as a copy. A Get
	// leaves them nil.
	Spans []adindex.AdSpan
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
	// next is the slot + 1 of the next older fragment in use of the same
	// ID, 0 at the oldest: the fragments of one ID form a list from the
	// newest, which the index holds.
	next [1 << fragChunkBits]uint32
}

// fragTable is the cache's one table of encoded ads.
type fragTable struct {
	// chunks is loaded by hits without mu. It is replaced, never written
	// in place, when it grows, and a chunk never moves.
	chunks atomic.Pointer[[]*fragChunk]

	mu    sync.Mutex
	index fragIndex // the newest fragment of each ID in use, which lists the rest
	free  []uint32  // freed slots, reused before new ones
	slots uint32    // slots handed out, free ones included
	live  int       // fragments in use
	bytes int64     // their JSON bytes
}

// at returns the chunk of slot i and its position there. The caller holds
// mu, or the shard lock of an entry that references the slot.
func (t *fragTable) at(i uint32) (*fragChunk, uint32) {
	return (*t.chunks.Load())[i>>fragChunkBits], i & fragChunkMask
}

// internAds returns the fragments of the ads of body that spans locate,
// in order, each with one reference more, and then drops one reference to
// each fragment of drop: a refresh keeps the fragments its old reply
// shares with the new one.
func (t *fragTable) internAds(body []byte, spans []adindex.AdSpan, drop []uint32) []uint32 {
	refs := make([]uint32, len(spans))
	t.mu.Lock()
	defer t.mu.Unlock()
	start := 1 // past the '['
	for k, sp := range spans {
		refs[k] = t.intern(sp.ID, body[start:sp.End])
		start = sp.End + 1 // past the ','
	}
	t.releaseLocked(drop)
	return refs
}

// intern returns the fragment of ad id whose bytes are b with one more
// reference: any fragment of the ID in use that holds them, or else a new
// one, which becomes the ID's newest: new replies carry the newest
// content. The caller holds mu.
func (t *fragTable) intern(id uint64, b []byte) uint32 {
	at, ok := t.index.find(id)
	var newest uint32
	if ok {
		newest = t.index.pos[at].slot
		for s := newest; s != 0; {
			c, j := t.at(s - 1)
			if bytes.Equal(c.json[j], b) {
				c.refs[j]++
				return s - 1
			}
			s = c.next[j]
		}
	}
	i := t.alloc()
	c, j := t.at(i)
	c.id[j], c.refs[j], c.json[j], c.next[j] = id, 1, bytes.Clone(b), newest
	t.index.set(at, ok, id, i)
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
	t.releaseLocked(refs)
}

// releaseLocked is release for a caller that holds mu.
func (t *fragTable) releaseLocked(refs []uint32) {
	for _, i := range refs {
		c, j := t.at(i)
		if c.refs[j]--; c.refs[j] > 0 {
			continue
		}
		t.unlink(i)
		t.live--
		t.bytes -= int64(len(c.json[j]))
		c.json[j] = nil
		t.free = append(t.free, i)
	}
}

// unlink takes fragment i out of its ID's list, and the ID out of the
// index with its last fragment. The caller holds mu.
func (t *fragTable) unlink(i uint32) {
	c, j := t.at(i)
	at, _ := t.index.find(c.id[j])
	s := t.index.pos[at].slot
	switch {
	case s == i+1 && c.next[j] == 0:
		t.index.remove(at)
	case s == i+1:
		t.index.pos[at].slot = c.next[j]
	default:
		for {
			pc, pj := t.at(s - 1)
			if s = pc.next[pj]; s == i+1 {
				pc.next[pj] = c.next[j]
				break
			}
		}
	}
	c.next[j] = 0
}

// fragIndex maps an ad ID to the slot of its newest fragment in use: an
// open-addressing table in one flat array, probed linearly from the ID's
// home position. A position holds the ID beside the slot, so a probe
// compares IDs without loading a fragment, and the table is kept at most
// three quarters full (it doubles past that), so in the common case a
// probe touches one cache line. A delete shifts the entries behind it
// back, as ghostRing's does. Half full would cost memory for no speed:
// the 34 131 IDs that the hot stream over a 100k-ad corpus stores took
// 131 072 positions (2 MB) instead of 65 536, and http-hot's rss_mb read
// 1.7 MiB above the Go map's in each of five pairs.
type fragIndex struct {
	pos   []fragPos // a power of two long, or empty before the first ID
	shift uint      // 64 - log2(len(pos)): home keeps the hash's top bits
	n     int       // positions in use
}

// fragPos is one position of a fragIndex.
type fragPos struct {
	id   uint64
	slot uint32 // the fragment's slot + 1; 0 on an empty position
}

// minFragIndex is the length of a fragIndex's first array.
const minFragIndex = 64

// home is the position where the probe for id starts.
func (x *fragIndex) home(id uint64) int {
	return int(id * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the position of id and true, or the empty position where
// id would go and false.
func (x *fragIndex) find(id uint64) (int, bool) {
	if len(x.pos) == 0 {
		return 0, false
	}
	mask := len(x.pos) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if p := x.pos[i]; p.slot == 0 || p.id == id {
			return i, p.slot != 0
		}
	}
}

// set makes slot the fragment of id at position at, as find returned it
// (present tells whether id was there): a present ID's slot is replaced,
// an absent one is added, which can grow the table.
func (x *fragIndex) set(at int, present bool, id uint64, slot uint32) {
	if present {
		x.pos[at].slot = slot + 1
		return
	}
	if 4*(x.n+1) > 3*len(x.pos) {
		x.grow()
		at, _ = x.find(id)
	}
	x.pos[at] = fragPos{id: id, slot: slot + 1}
	x.n++
}

// grow doubles the table and adds its entries again.
func (x *fragIndex) grow() {
	old := x.pos
	size := max(minFragIndex, 2*len(old))
	x.pos, x.shift = make([]fragPos, size), uint(64-bits.TrailingZeros(uint(size)))
	for _, p := range old {
		if p.slot != 0 {
			i, _ := x.find(p.id)
			x.pos[i] = p
		}
	}
}

// remove empties position i, shifting the entries behind it back so that
// no probe sequence crosses an empty position.
func (x *fragIndex) remove(i int) {
	mask := len(x.pos) - 1
	for j := (i + 1) & mask; x.pos[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may fill i unless its home lies after i, in
		// (i, j]: it must stay reachable from its home.
		k := x.home(x.pos[j].id)
		if (j-k)&mask >= (j-i)&mask {
			x.pos[i] = x.pos[j]
			i = j
		}
	}
	x.pos[i] = fragPos{}
	x.n--
}

// probationShare is the reciprocal of the share of a shard's capacity the
// probation segment holds (see "Segments" above).
const probationShare = 5

// cacheEntry is one stored reply under its key and epoch. A reply that
// holds ads is held as their fragments, in order (refs), and its length
// (bodyLen); one without ("null", "[]") as a copy (body).
type cacheEntry struct {
	key       string
	epoch     uint64
	protected bool // in the protected segment, else in probation
	matched   int
	body      []byte
	bodyLen   int
	refs      []uint32
}

// size is what the entry owns: its key, a body it keeps and 4 bytes per
// reference (the fragments are the table's).
func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.body) + 4*len(e.refs)) }

// setBody makes reply the entry's: its ads, as spans locate them, as
// fragments, or its body as a copy when it comes without spans ("null",
// "[]"); and releases the fragments of the reply it replaces. The caller
// holds the entry's shard lock.
func (e *cacheEntry) setBody(reply Cached, t *fragTable) {
	drop := e.refs
	e.body, e.bodyLen, e.refs = nil, len(reply.Body), nil
	if len(reply.Spans) > 0 {
		e.refs = t.internAds(reply.Body, reply.Spans, drop)
		return
	}
	e.body = bytes.Clone(reply.Body)
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
	probation    list.List                // demoted replies; front = most recent
	protected    list.List                // stored replies; front = most recent
	bytes        int64                    // what the entries own (cacheEntry.size)
	ads          *fragTable               // the cache's
	ghosts       ghostRing
}

// store adds a new entry at the protected front: a key's second sighting.
// If that overflows the protected segment its least-recently-used entry is
// demoted to probation's front, and if that overflows probation its
// least-recently-used entry is evicted. The caller holds the lock.
func (s *cacheShard) store(ent *cacheEntry) {
	ent.protected = true
	s.items[ent.key] = s.protected.PushFront(ent)
	s.bytes += ent.size()
	s.overflow()
}

// overflow demotes the protected segment's least-recently-used entry if
// it holds more than its share, and evicts probation's if that then holds
// more than its own, releasing its fragments. The caller holds the lock.
func (s *cacheShard) overflow() {
	if s.protected.Len() <= s.cap-s.probationCap {
		return
	}
	old := s.protected.Remove(s.protected.Back()).(*cacheEntry)
	old.protected = false
	s.items[old.key] = s.probation.PushFront(old)
	if s.probation.Len() > s.probationCap {
		ent := s.probation.Remove(s.probation.Back()).(*cacheEntry)
		delete(s.items, ent.key)
		s.bytes -= ent.size()
		s.ads.release(ent.refs)
	}
}

// repeat records a repeat of the entry at el: a protected entry moves to
// its segment's front; a probation entry is promoted to the protected
// front, which can demote another (probation lost one entry and gains one,
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
	s.overflow()
}

// ghostRing remembers the keys a shard has seen once, as their
// fingerprints, in fixed arrays allocated with the shard: fps is a FIFO
// ring, next its oldest slot, and table an open-addressing set over it
// (ring position + 1 per entry, 0 when empty; a power of two at least
// twice the ring, so a probe stays short). A fingerprint taken out of the
// set by a key's second sighting leaves its slot in the ring until the ring
// comes round to it: the ring holds twice as many slots as probation
// entries, so that the slots of promoted ghosts do not cut the wait of the
// others.
type ghostRing struct {
	fps   []uint64
	next  int
	table []int32
	live  int // fingerprints in the set
}

func newGhostRing(slots int) ghostRing {
	size := 16
	for size < 2*slots {
		size *= 2
	}
	return ghostRing{fps: make([]uint64, slots), table: make([]int32, size)}
}

// home is the table position where the probe for fingerprint fp starts:
// the fingerprint's low bits picked the shard, so its high bits pick the
// position.
func (g *ghostRing) home(fp uint64) int {
	return int(fp*0x9E3779B97F4A7C15>>32) & (len(g.table) - 1)
}

// take reports whether fp is in the set, and takes it out.
func (g *ghostRing) take(fp uint64) bool {
	mask := len(g.table) - 1
	for i := g.home(fp); g.table[i] != 0; i = (i + 1) & mask {
		if g.fps[g.table[i]-1] == fp {
			g.remove(i)
			return true
		}
	}
	return false
}

// add puts fp into the ring's oldest slot, taking the fingerprint there
// out of the set if a second sighting has not, and into the set.
func (g *ghostRing) add(fp uint64) {
	s := int32(g.next) + 1 // as the table holds it
	mask := len(g.table) - 1
	for i := g.home(g.fps[s-1]); g.table[i] != 0; i = (i + 1) & mask {
		if g.table[i] == s {
			g.remove(i)
			break
		}
	}
	g.fps[s-1] = fp
	g.next = (g.next + 1) % len(g.fps)
	i := g.home(fp)
	for g.table[i] != 0 {
		i = (i + 1) & mask
	}
	g.table[i] = s
	g.live++
}

// remove empties table position i, shifting the entries behind it back so
// that no probe sequence crosses an empty position (as the workload
// sampler's table does).
func (g *ghostRing) remove(i int) {
	mask := len(g.table) - 1
	for j := (i + 1) & mask; g.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill i unless its home lies after i, in
		// (i, j]: it must stay reachable from its home.
		k := g.home(g.fps[g.table[j]-1])
		if (j-k)&mask >= (j-i)&mask {
			g.table[i] = g.table[j]
			i = j
		}
	}
	g.table[i] = 0
	g.live--
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
	stores        atomic.Uint64 // second sightings stored
	refreshes     atomic.Uint64 // puts taken into a present entry
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
	probationCap := (perShard + probationShare - 1) / probationShare
	c := &Cache{shards: make([]*cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:          perShard,
			probationCap: probationCap,
			items:        make(map[string]*list.Element),
			ads:          &c.ads,
			ghosts:       newGhostRing(2 * probationCap),
		}
	}
	return c
}

// cacheKeyBytes is a key in either form it travels in: the handler builds
// keys in a pooled []byte, stored entries and outside callers hold strings.
type cacheKeyBytes interface{ string | []byte }

// shardOf picks the shard of the key whose fingerprint is fp.
func (c *Cache) shardOf(fp uint64) *cacheShard {
	return c.shards[uint32(fp)&c.mask]
}

// Get returns the cached reply for key if present and computed at
// changedAt or later (adindex.View.ChangedAt of the query's words). A
// present reply that is older counts as an invalidation and a miss. The
// reply's Body is a new slice.
func (c *Cache) Get(key string, changedAt uint64) (Cached, bool) {
	_, reply, ok := cacheGet(c, nil, key, fingerprint(key), changedAt, nil)
	return reply, ok
}

// cacheGet is Get for either key form (a []byte key is looked up without
// being converted to a string), given the key's fingerprint, into the
// caller's buffer: on a hit it appends to dst what head appends for the
// entry's match count (nil: nothing), then the entry's body, both under the
// entry's shard lock, and the reply's Body is that body within dst.
func cacheGet[K cacheKeyBytes](c *Cache, dst []byte, key K, fp, changedAt uint64, head func(dst []byte, matched int) []byte) ([]byte, Cached, bool) {
	if c == nil {
		return dst, Cached{}, false
	}
	s := c.shardOf(fp)
	s.mu.Lock()
	el, ok := s.items[string(key)]
	if !ok {
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
	reply := Cached{Matched: ent.matched, Body: dst[mark:]}
	s.repeat(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return dst, reply, true
}

// Put puts ads, encoded, as the reply computed for key on a view of the
// given epoch (stored on the key's second sighting, as cachePut says): the
// form for callers that hold ads rather than a reply body.
func (c *Cache) Put(key string, epoch uint64, ads []adindex.Ad) {
	body, spans := appendAdsJSON(nil, nil, ads)
	cachePut(c, key, fingerprint(key), epoch, Cached{Matched: len(ads), Body: body, Spans: spans})
}

// appendAdsJSON appends ads as corpus.AppendAdsJSON does (a nil slice is
// null, an empty one []) and, for each ad, its span to spans: the encoding
// of the replies that are built from Ads, as View.AppendMatchJSON's is of
// those it encodes from the index.
func appendAdsJSON(dst []byte, spans []adindex.AdSpan, ads []adindex.Ad) ([]byte, []adindex.AdSpan) {
	if ads == nil {
		return append(dst, "null"...), spans
	}
	open := len(dst)
	dst = append(dst, '[')
	for i := range ads {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = ads[i].AppendJSON(dst)
		spans = append(spans, adindex.AdSpan{ID: ads[i].ID, End: len(dst) - open})
	}
	return append(dst, ']'), spans
}

// cachePut stores a reply computed at the given epoch (the Epoch of the
// View that computed it) on its key's second sighting; fp is the key's
// fingerprint. A key not present is stored only if its shard's ghosts hold
// fp: the fingerprint is taken out and the reply, its ads interned, enters
// the protected segment's front. Otherwise fp becomes a ghost, and nothing
// else is kept. A present entry takes the reply in place, its ads
// interned, and counts as a repeat, unless it is from a newer epoch, which
// a reader still on an old view must not replace. The cache keeps neither
// the body nor the key the caller passed, so both may live in the caller's
// reused buffers. A put racing a mutation is harmless: the entry says which
// epoch its reply was computed at, and a Get that knows of a later change
// to the query's words passes it over. So is a fingerprint that two keys
// share: the second key's reply is stored a sighting early, under its own
// key.
func cachePut[K cacheKeyBytes](c *Cache, key K, fp, epoch uint64, reply Cached) {
	if c == nil {
		return
	}
	s := c.shardOf(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.epoch > epoch {
			return
		}
		s.bytes -= ent.size()
		ent.epoch, ent.matched = epoch, reply.Matched
		ent.setBody(reply, s.ads)
		s.bytes += ent.size()
		s.repeat(el)
		c.refreshes.Add(1)
		return
	}
	if !s.ghosts.take(fp) {
		s.ghosts.add(fp)
		return
	}
	ent := &cacheEntry{key: string(key), epoch: epoch, matched: reply.Matched}
	ent.setBody(reply, s.ads)
	s.store(ent)
	c.stores.Add(1)
}

// Len returns the number of entries held in both segments (entries a write
// has outdated are included until a put refreshes them or they are
// evicted).
func (c *Cache) Len() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() + s.protected.Len() })
}

// probationLen returns the number of entries in probation: replies
// demoted since they were last asked.
func (c *Cache) probationLen() int {
	return c.count(func(s *cacheShard) int { return s.probation.Len() })
}

// ghostLen returns the number of ghosts: the fingerprints of keys seen
// once, which hold no entry.
func (c *Cache) ghostLen() int {
	return c.count(func(s *cacheShard) int { return s.ghosts.live })
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

// puts returns the cumulative counts of puts that stored a second
// sighting's reply and of puts taken into a present entry (refreshes of
// an outdated reply, and puts racing a hit).
func (c *Cache) puts() (stores, refreshes uint64) {
	if c == nil {
		return 0, 0
	}
	return c.stores.Load(), c.refreshes.Load()
}

// Stats returns cumulative hit/miss/invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

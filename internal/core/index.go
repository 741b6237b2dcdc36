package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// Options configures an Index.
type Options struct {
	// MaxWords is the maximum locator length (max_words, Section IV-B):
	// ads whose phrases contain more words are re-mapped to shorter
	// locators, which bounds the subset enumeration performed per query.
	// Default 10 (the value used in the paper's Section VII-C experiment).
	MaxWords int

	// MaxQueryWords is the paper's heuristic cut for extremely long
	// queries (Section IV-B), kept for its experiment: when positive,
	// queries with more indexed words are reduced to their MaxQueryWords
	// rarest words before subset enumeration, which loses the matches of
	// the dropped words. Default 0: no cut, every indexed word of the query
	// is walked (a budgeted walk is bounded instead; see Budget).
	MaxQueryWords int
}

// memHash is the number of bytes a hash-table probe is charged as reading
// (mem_hash in the Section V-A cost model).
const memHash = 16

func (o *Options) fillDefaults() {
	if o.MaxWords == 0 {
		o.MaxWords = 10
	}
}

// Index is the broad-match index: hash table H from word-set hashes to
// data nodes. It holds no Go pointer per ad: a node is a range of
// index-wide record columns (node.go), words are IDs into the index's
// vocabulary, and phrases and exclusions are bytes in one arena. It is not
// safe for concurrent mutation; concurrent readers are safe in the
// absence of writers.
type Index struct {
	opts Options
	// walkLimit is how many subsets a budgeted walk may consider: all of a
	// walkWords-word query's (see Budget).
	walkLimit int

	// table is H: wordhash(locator) -> data node (its number + 1), fused
	// with the refcounted locator-prefix frontier filter that lets subset
	// enumeration prune DFS subtrees no locator extends (see probeTable).
	table probeTable
	nodes []node
	// free holds the numbers of nodes a Delete emptied, for reuse.
	free []uint32

	// The record columns (see node.go), the word IDs they point into, and
	// the text arena.
	ids      []uint64
	bids     []int64
	ctr      []uint16
	campaign []uint32
	sigs     []uint64
	wcs      []uint32
	sameKey  []bool
	wordAt   []uint32
	textAt   []uint32
	wordIDs  []uint32
	arena    []byte

	voc vocab
	// locOf is the part of the mapping M that is not the identity: the key
	// of each indexed word set located somewhere other than at its own
	// words (a long phrase, or a set re-mapped by an explicit mapping) ->
	// its locator. Every other set is located at its own words (Locator).
	locOf map[string][]string

	numAds int
	// sets counts the distinct indexed word sets; bytes is the cost-model
	// payload of all records (the sum of their corpus.Ad.Size).
	sets, bytes int
	// wordsUsed and textUsed are what the live records need of wordIDs and
	// the arena; the rest is garbage that compact reclaims.
	wordsUsed, textUsed int

	// frozen is set on an index NewFrozen built: it takes no Insert or
	// Delete, and region, when it has records, holds its columns.
	frozen bool
	region *region

	// quoted is the vocabulary's words as JSON strings, built by the first
	// AppendRecordJSON.
	quoted atomic.Pointer[quotedWords]
}

// New builds an index over ads with the default mapping: every ad is
// stored at its own word set, except that phrases longer than MaxWords are
// re-mapped to shorter locators by the local heuristic (long-phrase
// re-mapping only; use NewWithMapping for workload-optimized mappings).
// The index copies what it keeps of the ads; they may be dropped or
// reused once it returns.
func New(ads []corpus.Ad, opts Options) *Index {
	return NewAt(ads, nil, opts)
}

// NewAt builds the index New builds over the ads at positions at of ads,
// in ascending order, without copying them out (nil at is every ad, as
// New). It is how a partition of one corpus is built a part at a time
// while the corpus is held once.
func NewAt(ads []corpus.Ad, at []int32, opts Options) *Index {
	return LoadAt(corpus.FromAds(ads), at, opts)
}

// LoadAt is NewAt over a corpus in columns (corpus.ReadColumns): the index
// over the ads at positions at of in, in ascending order, or over every ad
// where at is nil. The index keeps the vocabulary's strings of in and
// nothing else of it.
func LoadAt(in *corpus.Columns, at []int32, opts Options) *Index {
	n := in.Len()
	if at != nil {
		n = len(at)
	}
	ix, _ := build(in, at, nil, opts, loadWorkers(n), false) // no mapping, nothing to refuse
	return ix
}

// NewWithMapping builds an index with an explicit mapping from word-set
// keys (textnorm.SetKey of words(A)) to locator word sets. Sets absent
// from the mapping default to the same placement as New. The mapping must
// satisfy the validity conditions of Section V-A: each locator must be a
// non-empty subset of the mapped word set and at most MaxWords long.
func NewWithMapping(ads []corpus.Ad, mapping map[string][]string, opts Options) (*Index, error) {
	return load(ads, nil, mapping, opts, loadWorkers(len(ads)))
}

// NewFrozen builds the index NewWithMapping builds (a nil mapping is New's
// default placement) as a frozen index: its record columns, word IDs,
// nodes and probe table live in one region outside the Go heap
// (region.go), unmapped once the index is unreachable, and it refuses
// Insert and Delete with a panic. It is the base an immutable snapshot
// serves from.
func NewFrozen(ads []corpus.Ad, mapping map[string][]string, opts Options) (*Index, error) {
	return LoadFrozen(corpus.FromAds(ads), mapping, opts)
}

// LoadFrozen is NewFrozen over a corpus in columns (corpus.ReadColumns).
// The index keeps the vocabulary's strings of in and nothing else of it.
func LoadFrozen(in *corpus.Columns, mapping map[string][]string, opts Options) (*Index, error) {
	return build(in, nil, mapping, opts, loadWorkers(in.Len()), true)
}

// MappedBytes returns the size of the index's region if it is mapped
// outside the Go heap (OffHeapBytes counts it), and 0 otherwise.
func (ix *Index) MappedBytes() int {
	if ix.region == nil || !ix.region.mapped {
		return 0
	}
	return len(ix.region.mem)
}

// mutable panics if the index is frozen.
func (ix *Index) mutable(op string) {
	if ix.frozen {
		panic("core: " + op + " into a frozen index")
	}
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// NumAds returns the number of indexed advertisements.
func (ix *Index) NumAds() int { return ix.numAds }

// NumNodes returns the number of data nodes (entries in H).
func (ix *Index) NumNodes() int { return ix.table.len() }

// NumDistinctSets returns the number of distinct indexed word sets.
func (ix *Index) NumDistinctSets() int { return ix.sets }

// VocabWords returns the index's word universe — every word occurring in
// at least one indexed record — sorted. It allocates a fresh slice; the
// rewrite layer builds its vocabulary trie from it once per base index.
func (ix *Index) VocabWords() []string {
	words := make([]string, 0, len(ix.voc.words))
	for id, w := range ix.voc.words {
		if ix.voc.df[id] > 0 {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	return words
}

// WordDF returns the number of indexed records containing w (0 when w is
// not in the vocabulary).
func (ix *Index) WordDF(w string) int { return ix.voc.freq(w) }

// DocFreqs returns the per-word document frequencies of the words in at
// least one indexed record, as a fresh map: the df that PrepareQuery and
// the long-phrase locator rule read.
func (ix *Index) DocFreqs() map[string]int {
	df := make(map[string]int, len(ix.voc.words))
	for id, w := range ix.voc.words {
		if d := ix.voc.df[id]; d > 0 {
			df[w] = int(d)
		}
	}
	return df
}

// eachNode calls fn for every data node, in table order, with its key and
// number.
func (ix *Index) eachNode(fn func(h uint64, k uint32)) {
	ix.table.each(func(h uint64, v uint32) bool {
		fn(h, v-1)
		return true
	})
}

// Nodes calls fn for every data node in ascending order of its key, the
// WordHash of its locator, with copies of the node's records in node order
// (CompareRecords: the records of one word set adjacent). The copies are
// fn's to keep; their strings are the index's and stay valid. It is the
// node walk the compressed directory, the tree and the layout model are
// read off.
func (ix *Index) Nodes(fn func(hash uint64, records []corpus.Ad)) {
	type entry struct {
		h uint64
		k uint32
	}
	nodes := make([]entry, 0, ix.table.len())
	ix.eachNode(func(h uint64, k uint32) { nodes = append(nodes, entry{h, k}) })
	slices.SortFunc(nodes, func(a, b entry) int { return cmp.Compare(a.h, b.h) })
	for _, e := range nodes {
		nd := ix.nodes[e.k]
		fn(e.h, ix.appendAds(nil, nd.off, nd.off+nd.n))
	}
	runtime.KeepAlive(ix)
}

// appendAds appends the ads of records lo … hi-1 to dst, their strings in
// one fresh arena.
func (ix *Index) appendAds(dst []corpus.Ad, lo, hi uint32) []corpus.Ad {
	need := 0
	for r := lo; r < hi; r++ {
		need += ix.AdStrings(Ref(r))
	}
	strs := make([]string, 0, need)
	dst = slices.Grow(dst, int(hi-lo))
	for r := lo; r < hi; r++ {
		dst, strs = ix.AppendAd(dst, strs, Ref(r))
	}
	return dst
}

// addPrefixes registers n records' worth of references to every prefix of
// the locator with word IDs loc (in sorted order, hashed incrementally
// exactly as subset enumeration does), and each of its words in the
// successor filter of the word before it.
func (ix *Index) addPrefixes(loc []uint32, n uint32) {
	h := uint64(fnvOffset64)
	for i, id := range loc {
		h = hashExtend(h, i == 0, ix.voc.words[id])
		ix.table.add(h, n)
		if i == 0 {
			ix.voc.succ[id] |= startBit
		} else {
			ix.voc.succ[loc[i-1]] |= succBit(id)
		}
	}
}

// locatorIDs appends to dst the IDs of the words of loc, a subset of the
// set words whose IDs are ids.
func locatorIDs(dst []uint32, loc, words []string, ids []uint32) []uint32 {
	for _, w := range loc {
		dst = append(dst, ids[slices.Index(words, w)])
	}
	return dst
}

// dropPrefixes releases one record's worth of references to every prefix
// of loc.
func (ix *Index) dropPrefixes(loc []string) {
	h := uint64(fnvOffset64)
	for i, w := range loc {
		h = hashExtend(h, i == 0, w)
		ix.table.dec(h)
	}
}

// chooseLocator implements the fast local heuristic of Section VI: short
// word sets locate at themselves; long word sets are re-mapped to their
// MaxWords rarest words (rare words give the locator maximal selectivity,
// so the node attracts few unrelated co-accesses). ids holds the IDs of
// words; a long set's locator holds the vocabulary's strings, never the
// caller's.
func (ix *Index) chooseLocator(words []string, ids []uint32) []string {
	if len(words) <= ix.opts.MaxWords {
		return words
	}
	kept := rarest(nil, words, ix.opts.MaxWords, func(i int32) uint32 { return ix.voc.df[ids[i]] })
	loc := make([]string, len(kept))
	for j, i := range kept {
		loc[j] = ix.voc.words[ids[i]]
	}
	return loc
}

// rarest returns, in ord's storage and in ascending order, the positions
// in words (a canonical set) of its k rarest words: rarest first by df,
// which reads the frequency of the word at a position, ties by the word.
// It is the one rule by which the long-phrase locator and the
// MaxQueryWords cut both keep k words, and it sorts positions, so a
// comparison reads no map and searches no slice.
func rarest(ord []int32, words []string, k int, df func(i int32) uint32) []int32 {
	ord = ord[:0]
	for i := range words {
		ord = append(ord, int32(i))
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if c := cmp.Compare(df(a), df(b)); c != 0 {
			return c
		}
		return strings.Compare(words[a], words[b])
	})
	ord = ord[:k]
	slices.Sort(ord)
	return ord
}

// Locator returns the locator of the word set words: the words of the node
// that holds, or would hold, its records. It is words itself unless the
// set is long or re-mapped, or holds a word the vocabulary lacks, which
// no record has.
func (ix *Index) Locator(words []string) []string {
	if loc, ok := ix.mappedLocator(words); ok {
		return loc
	}
	var buf wordIDBuf
	ids, ok := ix.voc.appendIDs(buf[:0], words)
	if !ok {
		return words
	}
	return ix.chooseLocator(words, ids)
}

// mappedLocator returns the locOf entry of words, if it has one.
func (ix *Index) mappedLocator(words []string) ([]string, bool) {
	if len(ix.locOf) == 0 {
		return nil, false
	}
	var buf [128]byte
	loc, ok := ix.locOf[string(textnorm.AppendSetKey(buf[:0], words))]
	return loc, ok
}

// indexedLocator returns the locator of an indexed set: its locOf entry,
// or its own words. ok is false when the set cannot be indexed: it is
// long and has no entry.
func (ix *Index) indexedLocator(words []string) ([]string, bool) {
	if loc, ok := ix.mappedLocator(words); ok {
		return loc, true
	}
	return words, len(words) <= ix.opts.MaxWords
}

// wordIDBuf is the stack room for the word IDs of one phrase or query.
type wordIDBuf [16]uint32

// Insert adds an advertisement online: into the node of its word set's
// locator (condition IV: all ads sharing a word set go to the same node),
// which for a new word set is the one the local heuristic chooses. Unseen
// words join the vocabulary and document frequencies are updated
// incrementally; the globally optimized mapping is not recomputed
// (Section VI recommends periodic re-optimization instead).
func (ix *Index) Insert(ad corpus.Ad) {
	ix.mutable("Insert")
	var buf, locBuf wordIDBuf
	ids := buf[:0]
	for _, w := range ad.Words {
		id := ix.voc.intern(w)
		ix.voc.df[id]++
		ids = append(ids, id)
	}
	loc, ok := ix.mappedLocator(ad.Words)
	if !ok {
		if loc = ix.chooseLocator(ad.Words, ids); len(ad.Words) > ix.opts.MaxWords {
			ix.locOf[setKey(ad.Words)] = loc
		}
	}
	h := WordHash(loc)
	v := ix.table.get(h)
	if v == 0 {
		v = ix.newNode() + 1
		ix.table.put(h, v)
	}
	ix.insertRecord(v-1, &ad, ids)
	ix.addPrefixes(locatorIDs(locBuf[:0], loc, ad.Words, ids), 1)
	ix.numAds++
	ix.maybeCompact()
}

// insertRecord writes ad, whose words have the IDs ids, into node k at its
// place in node order: its columns, its text, and its word IDs, which it
// shares with a neighbour of its set.
func (ix *Index) insertRecord(k uint32, ad *corpus.Ad, ids []uint32) {
	r := ix.openSlot(k, ix.search(k, ids, ad.ID))
	ix.ids[r], ix.bids[r], ix.ctr[r], ix.campaign[r] = ad.ID, ad.Meta.BidMicros, ad.Meta.ClickRate, ad.Meta.CampaignID
	ix.sigs[r], ix.wcs[r] = ix.voc.signature(ids), uint32(len(ids))
	ix.textAt[r] = ix.appendText(ad)
	nd := ix.nodes[k]
	next := r+1 < nd.off+nd.n
	ix.wordAt[r] = uint32(len(ix.wordIDs)) // as sameSet reads it
	ix.wordIDs = append(ix.wordIDs, ids...)
	switch {
	case r > nd.off && ix.sameSet(r-1, r):
		ix.wordIDs = ix.wordIDs[:len(ix.wordIDs)-len(ids)]
		ix.wordAt[r] = ix.wordAt[r-1]
		ix.sameKey[r] = true
	case next && ix.sameSet(r+1, r):
		ix.wordIDs = ix.wordIDs[:len(ix.wordIDs)-len(ids)]
		ix.wordAt[r] = ix.wordAt[r+1]
		ix.sameKey[r] = false
	default:
		ix.sameKey[r] = false
		ix.sets++
	}
	if next {
		ix.sameKey[r+1] = ix.sameSet(r, r+1)
	}
	ix.wordsUsed += len(ids)
	ix.bytes += ad.Size()
}

// removeRecord removes the record at position i of node k and reports
// whether it was the last of its word set.
func (ix *Index) removeRecord(k, i uint32) (last bool) {
	r := ix.nodes[k].off + i
	if last = ix.lastOfSet(k, i); last {
		ix.sets--
	}
	n, _, size := ix.textStats(r)
	ix.bytes -= size
	ix.textUsed -= n
	ix.wordsUsed -= int(ix.wcs[r])
	ix.closeSlot(k, i)
	if nd := ix.nodes[k]; i < nd.n {
		ix.sameKey[r] = i > 0 && ix.sameSet(r-1, r)
	}
	return last
}

// newNode returns the number of an empty node.
func (ix *Index) newNode() uint32 {
	if n := len(ix.free); n > 0 {
		k := ix.free[n-1]
		ix.free = ix.free[:n-1]
		return k
	}
	ix.nodes = append(ix.nodes, node{off: uint32(len(ix.ids))})
	return uint32(len(ix.nodes) - 1)
}

// resolve finds the records of the word set words: the node they are at,
// reached by its locator, and the set as word IDs (appended to buf). ok is
// false when no record can have the set.
func (ix *Index) resolve(words []string, buf []uint32) (loc []string, h uint64, k uint32, ids []uint32, ok bool) {
	if ids, ok = ix.voc.appendIDs(buf, words); !ok {
		return
	}
	if loc, ok = ix.indexedLocator(words); !ok {
		return
	}
	h = WordHash(loc)
	v := ix.table.get(h)
	return loc, h, v - 1, ids, v != 0
}

// Delete removes the advertisement with the given ID and phrase. It
// reports whether the ad was found. As Section VI notes, deletion must
// locate the node the ad was re-mapped to; locOf makes that a single
// lookup here.
func (ix *Index) Delete(id uint64, phrase string) bool {
	ix.mutable("Delete")
	words := textnorm.WordSet(phrase)
	var buf wordIDBuf
	loc, h, k, ids, ok := ix.resolve(words, buf[:0])
	if !ok {
		return false
	}
	i := ix.find(k, ids, id)
	if i < 0 {
		return false
	}
	if ix.removeRecord(k, uint32(i)) && len(ix.locOf) > 0 {
		delete(ix.locOf, setKey(words))
	}
	if ix.nodes[k].n == 0 {
		ix.table.del(h)
		ix.nodes[k] = node{}
		ix.free = append(ix.free, k)
	}
	ix.dropPrefixes(loc)
	ix.numAds--
	for _, w := range ids {
		ix.voc.df[w]--
	}
	ix.maybeCompact()
	return true
}

// Lookup returns the number of indexed records with the given ID and
// phrase (duplicate inserts each add a record). It resolves the record's
// node exactly as Delete does but performs no mutation, which lets an
// overlay layer translate a deletion against an immutable base into a
// tombstone with an exact suppressed-record count.
func (ix *Index) Lookup(id uint64, phrase string) int {
	defer runtime.KeepAlive(ix)
	var buf wordIDBuf
	_, _, k, ids, ok := ix.resolve(textnorm.WordSet(phrase), buf[:0])
	if !ok {
		return 0
	}
	nd := ix.nodes[k]
	count := 0
	for i := ix.search(k, ids, id); i < nd.n && ix.compareRecord(nd.off+i, ids, id) == 0; i++ {
		count++
	}
	return count
}

// Mapping returns the non-identity part of the mapping M: every indexed
// word set located somewhere other than at its own words (long phrases and
// re-mapped sets), by set key. Together with the default placement it is
// the whole mapping, for inspection, persistence and rebuilding under the
// same placement; Locator answers for any one set. It is the index's own
// map, not a copy: read it only, and not across an Insert or Delete.
func (ix *Index) Mapping() map[string][]string { return ix.locOf }

// AppendAds appends a copy of every indexed advertisement to dst and
// returns it, in no particular order. It is the cheap capture primitive
// for callers that must copy atomically inside a critical section and
// can sort or filter outside it. The copies' strings are the index's
// (AppendAd).
func (ix *Index) AppendAds(dst []corpus.Ad) []corpus.Ad {
	need := 0
	ix.eachNode(func(_ uint64, k uint32) {
		nd := ix.nodes[k]
		for r := nd.off; r < nd.off+nd.n; r++ {
			need += ix.AdStrings(Ref(r))
		}
	})
	strs := make([]string, 0, need)
	dst = slices.Grow(dst, ix.numAds)
	ix.eachNode(func(_ uint64, k uint32) {
		nd := ix.nodes[k]
		for r := nd.off; r < nd.off+nd.n; r++ {
			dst, strs = ix.AppendAd(dst, strs, Ref(r))
		}
	})
	runtime.KeepAlive(ix)
	return dst
}

// Ads returns a copy of all indexed advertisements ordered by ID, the
// input of a rebuild under a new mapping.
func (ix *Index) Ads() []corpus.Ad {
	out := ix.AppendAds(nil)
	slices.SortFunc(out, func(a, b corpus.Ad) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Stats summarizes the physical structure of the index.
type Stats struct {
	NumAds       int
	NumNodes     int
	DistinctSets int
	NodeBytes    int     // total data-node payload bytes (cost model)
	MaxNodeAds   int     // largest node, in records
	AvgNodeAds   float64 // mean records per node
	AvgNodeBytes float64 // mean payload bytes per node
	// Bytes is the memory the index holds, by column.
	Bytes ByteStats
}

// ByteStats is the memory an index holds, by column, in bytes of
// capacity. The map-backed entries are estimates.
type ByteStats struct {
	// Records is the fixed-width record columns — ID, bid, click rate,
	// campaign, word count, set joint, word and text offsets — and the
	// node headers.
	Records int `json:"records"`
	// WordIDs is the packed word IDs of the records' word sets.
	WordIDs int `json:"word_ids"`
	// Arena is the phrase and exclusion bytes.
	Arena int `json:"arena"`
	// Signatures is the signature column.
	Signatures int `json:"signatures"`
	// ProbeTable is H with its prefix counts.
	ProbeTable int `json:"probe_table"`
	// Locators is the non-identity mapping (Mapping).
	Locators int `json:"locators"`
	// Vocabulary is the words, their IDs and their document frequencies.
	Vocabulary int `json:"vocabulary"`
}

// Total returns the sum of the columns.
func (b ByteStats) Total() int {
	return b.Records + b.WordIDs + b.Arena + b.Signatures + b.ProbeTable + b.Locators + b.Vocabulary
}

// Stats computes summary statistics.
func (ix *Index) Stats() Stats {
	defer runtime.KeepAlive(ix)
	s := Stats{NumAds: ix.numAds, NumNodes: ix.table.len(), DistinctSets: ix.sets, NodeBytes: ix.bytes}
	ix.eachNode(func(_ uint64, k uint32) { s.MaxNodeAds = max(s.MaxNodeAds, int(ix.nodes[k].n)) })
	if s.NumNodes > 0 {
		s.AvgNodeAds = float64(s.NumAds) / float64(s.NumNodes)
		s.AvgNodeBytes = float64(s.NodeBytes) / float64(s.NumNodes)
	}
	locators := 0
	for key, loc := range ix.locOf {
		locators += 16 + len(key) + 24 + 8 + 16*len(loc)
	}
	s.Bytes = ByteStats{
		Records: cap(ix.ids)*8 + cap(ix.bids)*8 + cap(ix.ctr)*2 + cap(ix.campaign)*4 + cap(ix.wcs)*4 +
			cap(ix.sameKey) + cap(ix.wordAt)*4 + cap(ix.textAt)*4 + cap(ix.nodes)*12 + cap(ix.free)*4,
		WordIDs:    cap(ix.wordIDs) * 4,
		Arena:      cap(ix.arena),
		Signatures: cap(ix.sigs) * 8,
		ProbeTable: ix.table.bytes(),
		Locators:   locators,
		Vocabulary: ix.voc.bytes(),
	}
	return s
}

// compactSlack is the garbage, in slots and bytes, an index may carry
// beyond its live contents before compact runs.
const compactSlack = 64

// maybeCompact compacts once garbage — the slots of moved and emptied
// nodes, room, and the word IDs and text of deleted records — is more than
// the live contents plus compactSlack. Insert's geometric node growth
// keeps the amortized cost O(1) per mutation.
func (ix *Index) maybeCompact() {
	if len(ix.ids) > 2*ix.numAds+compactSlack || len(ix.wordIDs) > 2*ix.wordsUsed+compactSlack ||
		len(ix.arena) > 2*ix.textUsed+compactSlack {
		ix.compact()
	}
}

// compact rewrites the record columns, the word IDs and the arena into
// fresh storage holding the live records only, in node-number order, with
// no room. Nothing that a caller holds moves: copied-out strings keep the
// old arena.
func (ix *Index) compact() {
	n := ix.numAds
	ids, bids, ctr, campaign := make([]uint64, n), make([]int64, n), make([]uint16, n), make([]uint32, n)
	sigs, wcs, sameKey, wordAt, textAt := make([]uint64, n), make([]uint32, n), make([]bool, n), make([]uint32, n), make([]uint32, n)
	wordIDs := make([]uint32, 0, ix.wordsUsed)
	arena := make([]byte, 0, ix.textUsed)
	at := uint32(0)
	for k := range ix.nodes {
		nd := &ix.nodes[k]
		for r := nd.off; r < nd.off+nd.n; r++ {
			ids[at], bids[at], ctr[at], campaign[at] = ix.ids[r], ix.bids[r], ix.ctr[r], ix.campaign[r]
			sigs[at], wcs[at], sameKey[at] = ix.sigs[r], ix.wcs[r], ix.sameKey[r]
			if sameKey[at] {
				wordAt[at] = wordAt[at-1]
			} else {
				wordAt[at] = uint32(len(wordIDs))
				wordIDs = append(wordIDs, ix.recWords(r)...)
			}
			text, _, _ := ix.textStats(r)
			textAt[at] = uint32(len(arena))
			arena = append(arena, ix.text(r)[:text]...)
			at++
		}
		nd.off, nd.cap = at-nd.n, nd.n
	}
	ix.ids, ix.bids, ix.ctr, ix.campaign = ids, bids, ctr, campaign
	ix.sigs, ix.wcs, ix.sameKey, ix.wordAt, ix.textAt = sigs, wcs, sameKey, wordAt, textAt
	ix.wordIDs, ix.arena = wordIDs, arena
}

// CheckInvariants validates the structural invariants of the index by
// re-deriving every column from the records' words and text: node order,
// signatures, word counts, set joints, the vocabulary and document
// frequencies, the byte and set counts, locator validity, condition IV
// co-location, and the prefix reference counts. Used by tests and by
// maintenance tooling.
func (ix *Index) CheckInvariants() error {
	defer runtime.KeepAlive(ix)
	n := len(ix.ids)
	if len(ix.bids) != n || len(ix.ctr) != n || len(ix.campaign) != n || len(ix.sigs) != n ||
		len(ix.wcs) != n || len(ix.sameKey) != n || len(ix.wordAt) != n || len(ix.textAt) != n {
		return fmt.Errorf("core: record columns of unequal length")
	}
	if err := ix.voc.check(); err != nil {
		return err
	}
	owner := make([]bool, n)
	df := make([]uint32, len(ix.voc.words))
	var count, bytes, sets, wordsUsed, textUsed int
	runs := make(map[string]bool)
	want := make(map[uint64]uint32) // prefix references the records' locators imply
	var err error
	ix.eachNode(func(h uint64, k uint32) {
		if err != nil {
			return
		}
		err = ix.checkNode(h, k, owner, df, runs, want, &sets)
		nd := ix.nodes[k]
		count += int(nd.n)
		for r := nd.off; r < nd.off+nd.n; r++ {
			n, _, size := ix.textStats(r)
			bytes += size
			textUsed += n
			wordsUsed += int(ix.wcs[r])
		}
	})
	if err != nil {
		return err
	}
	switch {
	case count != ix.numAds:
		return fmt.Errorf("core: record count %d != numAds %d", count, ix.numAds)
	case bytes != ix.bytes:
		return fmt.Errorf("core: byte count %d != recomputed %d", ix.bytes, bytes)
	case sets != ix.sets:
		return fmt.Errorf("core: %d distinct sets counted, %d recorded", sets, ix.sets)
	case wordsUsed != ix.wordsUsed || textUsed != ix.textUsed:
		return fmt.Errorf("core: live words %d, text %d; recorded %d, %d", wordsUsed, textUsed, ix.wordsUsed, ix.textUsed)
	case ix.table.len()+len(ix.free) != len(ix.nodes):
		return fmt.Errorf("core: %d nodes in H and %d free of %d", ix.table.len(), len(ix.free), len(ix.nodes))
	}
	if !slices.Equal(df, ix.voc.df) {
		return fmt.Errorf("core: document frequencies differ from the records' words")
	}
	for key, loc := range ix.locOf {
		if !runs[key] {
			return fmt.Errorf("core: set %q is mapped to locator %v but has no record", key, loc)
		}
	}
	livePrefixes := 0
	ix.table.eachPrefix(func(uint64, uint32) bool {
		livePrefixes++
		return true
	})
	if livePrefixes != len(want) {
		return fmt.Errorf("core: prefix filter has %d live hashes, locators imply %d", livePrefixes, len(want))
	}
	var prefErr error
	ix.table.eachPrefix(func(h uint64, cnt uint32) bool {
		if want[h] != cnt {
			prefErr = fmt.Errorf("core: prefix %x refcount %d, locators imply %d", h, cnt, want[h])
			return false
		}
		return true
	})
	return prefErr
}

// checkNode checks node k, stored under h, for CheckInvariants: its
// region, and every record's order, columns and locator. It claims the
// node's slots in owner, counts the records' words into df, and the sets
// and the prefix references their locators imply into runs, sets and
// want.
func (ix *Index) checkNode(h uint64, k uint32, owner []bool, df []uint32, runs map[string]bool, want map[uint64]uint32, sets *int) error {
	nd := ix.nodes[k]
	if nd.n == 0 {
		return fmt.Errorf("core: empty node at hash %x", h)
	}
	if nd.n > nd.cap || uint64(nd.off)+uint64(nd.cap) > uint64(len(ix.ids)) {
		return fmt.Errorf("core: node %x region %d+%d/%d outside the columns", h, nd.off, nd.n, nd.cap)
	}
	for r := nd.off; r < nd.off+nd.cap; r++ {
		if owner[r] {
			return fmt.Errorf("core: node %x overlaps another at slot %d", h, r)
		}
		owner[r] = true
	}
	for r := nd.off; r < nd.off+nd.n; r++ {
		ws := ix.recWords(r)
		words := make([]string, len(ws))
		for i, id := range ws {
			if int(id) >= len(ix.voc.words) {
				return fmt.Errorf("core: node %x record %d holds word ID %d outside the vocabulary", h, r, id)
			}
			words[i] = ix.voc.words[id]
			df[id]++
		}
		for i := 1; i < len(words); i++ {
			if words[i-1] >= words[i] {
				return fmt.Errorf("core: node %x record %d words %v not canonical", h, r, words)
			}
		}
		if ix.sigs[r] != SetSignature(words) {
			return fmt.Errorf("core: node %x record %d signature out of sync", h, r)
		}
		if r > nd.off && ix.compareRecord(r-1, ws, ix.ids[r]) > 0 {
			return fmt.Errorf("core: node %x records out of order at %d", h, r)
		}
		if same := r > nd.off && ix.sameSet(r-1, r); ix.sameKey[r] != same {
			return fmt.Errorf("core: node %x record %d set joint %v, want %v", h, r, ix.sameKey[r], same)
		}
		if ix.sameKey[r] {
			continue
		}
		key := setKey(words)
		if runs[key] {
			return fmt.Errorf("core: set %q has records in two places", key)
		}
		runs[key] = true
		*sets++
		loc, mapped := ix.locOf[key]
		switch {
		case !mapped && len(words) > ix.opts.MaxWords:
			return fmt.Errorf("core: set %q is longer than MaxWords=%d and has no locator", key, ix.opts.MaxWords)
		case !mapped:
			loc = words
		case slices.Equal(loc, words):
			return fmt.Errorf("core: set %q is mapped to its own words", key)
		case !textnorm.IsSubset(loc, words):
			return fmt.Errorf("core: locator %v not a subset of set %v", loc, words)
		case len(loc) > ix.opts.MaxWords:
			return fmt.Errorf("core: locator %v longer than MaxWords=%d", loc, ix.opts.MaxWords)
		}
		if WordHash(loc) != h {
			return fmt.Errorf("core: set %q is at node %x, its locator %v is not", key, h, loc)
		}
		run := uint32(1)
		for s := r + 1; s < nd.off+nd.n && ix.sameKey[s]; s++ {
			run++
		}
		ph := uint64(fnvOffset64)
		for i, w := range loc {
			ph = hashExtend(ph, i == 0, w)
			want[ph] += run
		}
		ids := locatorIDs(nil, loc, words, ws)
		for i, id := range ids {
			if i == 0 && ix.voc.succ[id]&startBit == 0 || i > 0 && ix.voc.succ[ids[i-1]]&succBit(id) == 0 {
				return fmt.Errorf("core: locator %v: successor filter misses word %d", loc, i)
			}
		}
	}
	return nil
}

package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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

	// MaxQueryWords is the heuristic cutoff for extremely long queries
	// (Section IV-B): queries with more indexed words are reduced to
	// their MaxQueryWords rarest words before subset enumeration. This
	// can (rarely) lose matches, exactly as the paper's cutoff does.
	// Default 12.
	MaxQueryWords int

	// MemHash is the number of bytes read per hash-table probe
	// (mem_hash in the Section V-A cost model). Default 16.
	MemHash int
}

func (o *Options) fillDefaults() {
	if o.MaxWords == 0 {
		o.MaxWords = 10
	}
	if o.MaxQueryWords == 0 {
		o.MaxQueryWords = 12
	}
	if o.MemHash == 0 {
		o.MemHash = 16
	}
}

// Index is the broad-match index: hash table H from word-set hashes to
// data nodes. It is not safe for concurrent mutation; concurrent readers
// are safe in the absence of writers.
type Index struct {
	opts Options

	// table is H: wordhash(locator) -> data node, fused with the
	// refcounted locator-prefix frontier filter that lets subset
	// enumeration prune DFS subtrees no locator extends (see probeTable).
	table probeTable
	// locOf is the mapping M: the key of each distinct indexed word set ->
	// the locator whose node stores every ad of that set (condition IV).
	// It is the only per-set bookkeeping: how many ads a set has is read
	// off its node, where they are adjacent (node.lastOfSet).
	locOf map[string][]string
	// df is the per-word document frequency across indexed bids, used by
	// query-word filtering and the locator heuristic.
	df map[string]int

	// nodeSeq issues the per-index node ids that query scratch state uses
	// to dedupe visited nodes in O(1).
	nodeSeq uint64

	numAds int
}

// New builds an index over ads with the default mapping: every ad is
// stored at its own word set, except that phrases longer than MaxWords are
// re-mapped to shorter locators by the local heuristic (long-phrase
// re-mapping only; use NewWithMapping for workload-optimized mappings).
// The index keeps the ads' Words slices; they must not be modified.
func New(ads []corpus.Ad, opts Options) *Index {
	ix, _ := load(ads, nil, opts, loadWorkers(len(ads))) // no mapping, nothing to refuse
	return ix
}

// NewWithMapping builds an index with an explicit mapping from word-set
// keys (textnorm.SetKey of words(A)) to locator word sets. Sets absent
// from the mapping default to the same placement as New. The mapping must
// satisfy the validity conditions of Section V-A: each locator must be a
// non-empty subset of the mapped word set and at most MaxWords long. The
// index keeps the locator slices it uses; they must not be modified.
func NewWithMapping(ads []corpus.Ad, mapping map[string][]string, opts Options) (*Index, error) {
	return load(ads, mapping, opts, loadWorkers(len(ads)))
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// NumAds returns the number of indexed advertisements.
func (ix *Index) NumAds() int { return ix.numAds }

// NumNodes returns the number of data nodes (entries in H).
func (ix *Index) NumNodes() int { return ix.table.len() }

// NumDistinctSets returns the number of distinct indexed word sets.
func (ix *Index) NumDistinctSets() int { return len(ix.locOf) }

// VocabWords returns the index's word universe — every word occurring in
// at least one indexed record — sorted. It allocates a fresh slice; the
// rewrite layer builds its vocabulary trie from it once per base index.
func (ix *Index) VocabWords() []string {
	words := make([]string, 0, len(ix.df))
	for w := range ix.df {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// WordDF returns the number of indexed records containing w (0 when w is
// not in the vocabulary).
func (ix *Index) WordDF(w string) int { return ix.df[w] }

// addPrefixes registers n records' worth of references to every prefix of
// loc (in sorted order, hashed incrementally exactly as subset enumeration
// does).
func (ix *Index) addPrefixes(loc []string, n uint32) {
	h := uint64(fnvOffset64)
	for i, w := range loc {
		h = hashExtend(h, i == 0, w)
		ix.table.add(h, n)
	}
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
// so the node attracts few unrelated co-accesses).
func (ix *Index) chooseLocator(words []string) []string {
	if len(words) <= ix.opts.MaxWords {
		return words
	}
	byRarity := make([]string, len(words))
	copy(byRarity, words)
	sort.SliceStable(byRarity, func(i, j int) bool {
		di, dj := ix.df[byRarity[i]], ix.df[byRarity[j]]
		if di != dj {
			return di < dj
		}
		return byRarity[i] < byRarity[j]
	})
	return textnorm.CanonicalSet(byRarity[:ix.opts.MaxWords])
}

// Insert adds an advertisement online: into the node of its word set's
// locator (condition IV: all ads sharing a word set go to the same node),
// which for a new word set is the one the local heuristic chooses. Document
// frequencies are updated incrementally; the globally optimized mapping is
// not recomputed (Section VI recommends periodic re-optimization instead).
func (ix *Index) Insert(ad corpus.Ad) {
	for _, w := range ad.Words {
		ix.df[w]++
	}
	key := setKey(ad.Words)
	loc, ok := ix.locOf[key]
	if !ok {
		loc = ix.chooseLocator(ad.Words)
		ix.locOf[key] = loc
	}
	h := WordHash(loc)
	n := ix.table.get(h)
	if n == nil {
		ix.nodeSeq++
		n = &node{id: ix.nodeSeq}
		ix.table.put(h, n)
	}
	n.insert(ad)
	ix.addPrefixes(loc, 1)
	ix.numAds++
}

// Delete removes the advertisement with the given ID and phrase. It
// reports whether the ad was found. As Section VI notes, deletion must
// locate the node the ad was re-mapped to; locOf makes that a single
// lookup here.
func (ix *Index) Delete(id uint64, phrase string) bool {
	words := textnorm.WordSet(phrase)
	key := setKey(words)
	loc, ok := ix.locOf[key]
	if !ok {
		return false
	}
	h := WordHash(loc)
	n := ix.table.get(h)
	if n == nil {
		return false
	}
	i := n.find(id, key)
	if i < 0 {
		return false
	}
	if n.lastOfSet(i) {
		delete(ix.locOf, key)
	}
	n.removeAt(i)
	if len(n.records) == 0 {
		ix.table.del(h)
	}
	ix.dropPrefixes(loc)
	ix.numAds--
	for _, w := range words {
		if ix.df[w]--; ix.df[w] == 0 {
			delete(ix.df, w)
		}
	}
	return true
}

// Lookup returns the number of indexed records with the given ID and
// phrase (duplicate inserts each add a record). It resolves the record's
// node exactly as Delete does but performs no mutation, which lets an
// overlay layer translate a deletion against an immutable base into a
// tombstone with an exact suppressed-record count.
func (ix *Index) Lookup(id uint64, phrase string) int {
	words := textnorm.WordSet(phrase)
	key := setKey(words)
	loc, ok := ix.locOf[key]
	if !ok {
		return 0
	}
	n := ix.table.get(WordHash(loc))
	if n == nil {
		return 0
	}
	count := 0
	for i := range n.records {
		rec := &n.records[i]
		if len(rec.Words) > len(words) {
			break
		}
		if rec.ID == id && rec.SetKey() == key {
			count++
		}
	}
	return count
}

// Mapping returns the current mapping from word-set keys to locator word
// sets (M in the paper), for inspection, persistence and rebuilding under
// the same placement. It is the index's own map, not a copy: read it only,
// and not across an Insert or Delete.
func (ix *Index) Mapping() map[string][]string { return ix.locOf }

// AppendAds appends a copy of every indexed advertisement to dst and
// returns it, in no particular order. It is the cheap capture primitive
// for callers that must copy atomically inside a critical section and
// can sort or filter outside it.
func (ix *Index) AppendAds(dst []corpus.Ad) []corpus.Ad {
	dst = slices.Grow(dst, ix.numAds)
	ix.table.each(func(_ uint64, n *node) bool {
		dst = append(dst, n.records...)
		return true
	})
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
	NodeBytes    int     // total data-node payload bytes
	MaxNodeAds   int     // largest node, in records
	AvgNodeAds   float64 // mean records per node
	AvgNodeBytes float64 // mean payload bytes per node
}

// Stats computes summary statistics.
func (ix *Index) Stats() Stats {
	s := Stats{NumAds: ix.numAds, NumNodes: ix.table.len(), DistinctSets: len(ix.locOf)}
	ix.table.each(func(_ uint64, n *node) bool {
		s.NodeBytes += n.bytes
		if len(n.records) > s.MaxNodeAds {
			s.MaxNodeAds = len(n.records)
		}
		return true
	})
	if s.NumNodes > 0 {
		s.AvgNodeAds = float64(s.NumAds) / float64(s.NumNodes)
		s.AvgNodeBytes = float64(s.NodeBytes) / float64(s.NumNodes)
	}
	return s
}

// CheckInvariants validates the structural invariants of the index:
// node ordering, locator subset validity, condition IV co-location, and
// counter consistency. Used by tests and by maintenance tooling.
func (ix *Index) CheckInvariants() error {
	count := 0
	var nodeErr error
	ix.table.each(func(h uint64, n *node) bool {
		if len(n.records) == 0 {
			nodeErr = fmt.Errorf("core: empty node at hash %x", h)
			return false
		}
		if !n.checkOrdered() {
			nodeErr = fmt.Errorf("core: node %x records out of order", h)
			return false
		}
		if !n.checkColumns() {
			nodeErr = fmt.Errorf("core: node %x columnar mirrors out of sync", h)
			return false
		}
		bytes := 0
		for i := range n.records {
			bytes += n.records[i].Size()
		}
		if bytes != n.bytes {
			nodeErr = fmt.Errorf("core: node %x byte count %d != recomputed %d", h, n.bytes, bytes)
			return false
		}
		count += len(n.records)
		return true
	})
	if nodeErr != nil {
		return nodeErr
	}
	if count != ix.numAds {
		return fmt.Errorf("core: record count %d != numAds %d", count, ix.numAds)
	}
	// Every mapped set must have records, all at its locator's node, and
	// every record's set must be mapped: the per-set counts sum to numAds.
	// Prefix refcounts must equal the per-record contributions of every
	// live locator: each record stored under a k-word locator references
	// each of the locator's k prefix hashes once.
	mapped := 0
	want := make(map[uint64]uint32)
	for key, loc := range ix.locOf {
		words := textnorm.SplitKey(key)
		if !textnorm.IsSubset(loc, words) {
			return fmt.Errorf("core: locator %v not a subset of set %v", loc, words)
		}
		if len(loc) > ix.opts.MaxWords {
			return fmt.Errorf("core: locator %v longer than MaxWords=%d", loc, ix.opts.MaxWords)
		}
		n := ix.table.get(WordHash(loc))
		if n == nil {
			return fmt.Errorf("core: no node for locator %v", loc)
		}
		found := 0
		for i := range n.records {
			if n.records[i].SetKey() == key {
				found++
			}
		}
		if found == 0 {
			return fmt.Errorf("core: set %q is mapped to locator %v but has no record at its node", key, loc)
		}
		mapped += found
		h := uint64(fnvOffset64)
		for i, w := range loc {
			h = hashExtend(h, i == 0, w)
			want[h] += uint32(found)
		}
	}
	if mapped != ix.numAds {
		return fmt.Errorf("core: %d records sit at their set's locator, numAds is %d", mapped, ix.numAds)
	}
	livePrefixes := 0
	ix.table.eachPrefix(func(uint64, uint32) bool {
		livePrefixes++
		return true
	})
	if livePrefixes != len(want) {
		return fmt.Errorf("core: prefix filter has %d live hashes, locators imply %d",
			livePrefixes, len(want))
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

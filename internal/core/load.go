package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// The bulk loader behind New and NewWithMapping. An index over a known
// corpus is not grown one Insert at a time: the ads are sorted into the
// order the nodes keep them in, and every node, column and table entry is
// then written once, at its final size, into the index-wide columns, word
// IDs and arena. The result holds the records, nodes, table and mapping
// the same ads would build through Insert (TestBulkLoadEqualsIncremental),
// and it is a function of the input alone: every stage either writes
// disjoint, precomputed positions or runs on one goroutine in sorted
// order, so the worker count changes no byte of it
// (TestBulkLoadWorkerCountInvariant).

// loadGrain is how many ads justify one more loader goroutine.
const loadGrain = 4096

// loadWorkers is the loader parallelism for n ads: every processor, but
// no goroutines for a build too small to repay them.
func loadWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/loadGrain))
}

// parallel calls fn(0) … fn(parts-1), each once, from up to workers
// goroutines, and returns when every call has.
func parallel(workers, parts int, fn func(part int)) {
	if workers = min(workers, parts); workers <= 1 {
		for p := 0; p < parts; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := int(next.Add(1)) - 1; p < parts; p = int(next.Add(1)) - 1 {
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// placedAd is an input ad under the hash of its own word set: the sort key
// that brings the ads of a set together and, unless the set is located
// elsewhere, to their node.
type placedAd struct {
	h uint64
	i int32 // its position in the input
}

// loadSet is one distinct word set of the input: a run of the ordered ads.
type loadSet struct {
	lo, hi int32  // its ads, as positions in the ordered input
	hash   uint64 // WordHash(loc), the key of its node
	words  []string
	// key is the set key, computed where the loader needs it: to look the
	// set up in a mapping, or to enter a locator that is not the set's own
	// words into locOf.
	key string
	loc []string
}

// byNode orders sets as the nodes keep them: by node, word count, set key.
func byNode(a, b loadSet) int {
	if a.hash != b.hash {
		return cmp.Compare(a.hash, b.hash)
	}
	if c := cmp.Compare(len(a.words), len(b.words)); c != 0 {
		return c
	}
	return compareKeys(a.words, b.words)
}

// checkLocator is the validity condition of Section V-A on one entry of
// an explicit mapping.
func checkLocator(loc, words []string, maxWords int) error {
	if len(loc) > maxWords {
		return fmt.Errorf("core: locator %v for set %q exceeds MaxWords=%d", loc, setKey(words), maxWords)
	}
	if !textnorm.IsSubset(loc, words) {
		return fmt.Errorf("core: locator %v is not a subset of words %v", loc, words)
	}
	if len(loc) == 0 {
		return fmt.Errorf("core: empty locator for set %q", setKey(words))
	}
	return nil
}

// compareKeys orders two word sets of equal length as strings.Compare
// orders their set keys, building the keys only where a word of one is a
// prefix of the other's, so that the separator after it decides.
func compareKeys(a, b []string) int {
	for i := range a {
		if x, y := a[i], b[i]; x != y {
			if strings.HasPrefix(x, y) || strings.HasPrefix(y, x) {
				return strings.Compare(setKey(a[i:]), setKey(b[i:]))
			}
			return strings.Compare(x, y)
		}
	}
	return 0
}

// load builds the index over ads, placing each word set at mapping's
// locator for it, or at the default one where mapping (which may be nil)
// has none. It refuses a mapping with an invalid locator for a set that
// occurs in ads, reporting the first such ad in input order.
func load(ads []corpus.Ad, mapping map[string][]string, opts Options, workers int) (*Index, error) {
	opts.fillDefaults()
	ix := &Index{opts: opts, voc: newVocab(), locOf: map[string][]string{}}
	n := len(ads)
	if n == 0 {
		return ix, nil
	}
	if n > MaxRecords {
		panic("core: more than MaxRecords ads")
	}
	chunks := max(1, workers)
	chunkOf := func(p, total int) (lo, hi int) { return p * total / chunks, (p + 1) * total / chunks }

	// Each ad's set hash, and the document frequencies: counted per chunk,
	// then frozen into the vocabulary, which numbers the words and chooses
	// the default locator of a long phrase.
	placed := make([]placedAd, n)
	dfs := make([]map[string]int, chunks)
	parallel(workers, chunks, func(p int) {
		dfs[p] = make(map[string]int)
		for lo, hi := chunkOf(p, n); lo < hi; lo++ {
			for _, w := range ads[lo].Words {
				dfs[p][w]++
			}
			placed[lo] = placedAd{WordHash(ads[lo].Words), int32(lo)}
		}
	})
	ix.voc = buildVocab(dfs)

	// Order the ads by (set hash, word count, set key, ID): a counting sort
	// on the top byte of the hash, then each bucket on its own. Among
	// records equal in all of that a later one goes first, where Insert's
	// binary search would put it.
	var start [257]int32
	for _, o := range placed {
		start[o.h>>56+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	order := make([]placedAd, n)
	next := start
	for _, o := range placed {
		order[next[o.h>>56]] = o
		next[o.h>>56]++
	}
	parallel(workers, 256, func(bucket int) {
		slices.SortFunc(order[start[bucket]:start[bucket+1]], func(a, b placedAd) int {
			if a.h != b.h {
				return cmp.Compare(a.h, b.h)
			}
			x, y := &ads[a.i], &ads[b.i]
			if c := cmp.Compare(len(x.Words), len(y.Words)); c != 0 {
				return c
			}
			if c := compareKeys(x.Words, y.Words); c != 0 {
				return c
			}
			if c := cmp.Compare(x.ID, y.ID); c != 0 {
				return c
			}
			return cmp.Compare(b.i, a.i)
		})
	})

	// The distinct sets are the runs of equal words.
	sets := make([]loadSet, 0, n)
	for j := range order {
		words := ads[order[j].i].Words
		if last := len(sets) - 1; j > 0 && order[j].h == order[j-1].h && slices.Equal(words, sets[last].words) {
			sets[last].hi++
			continue
		}
		sets = append(sets, loadSet{lo: int32(j), hi: int32(j) + 1, words: words})
	}

	// Every set's locator, and its key where the loader needs it (the keys
	// of a chunk share one string). A mapped locator that must be refused
	// is reported for the first ad of its set in input order, as a build ad
	// by ad would.
	refusedAt := make([]int32, chunks)
	parallel(workers, chunks, func(p int) {
		refusedAt[p] = int32(n)
		lo, hi := chunkOf(p, len(sets))
		var keys []byte
		if mapping != nil {
			for i := lo; i < hi; i++ {
				keys = textnorm.AppendSetKey(keys, sets[i].words)
			}
		}
		rest := string(keys)
		for i := lo; i < hi; i++ {
			s := &sets[i]
			mapped := false
			if mapping != nil {
				end := max(len(s.words)-1, 0)
				for _, w := range s.words {
					end += len(w)
				}
				s.key, rest = rest[:end], rest[end:]
				if s.loc, mapped = mapping[s.key]; mapped && checkLocator(s.loc, s.words, opts.MaxWords) != nil {
					for j := s.lo; j < s.hi; j++ {
						refusedAt[p] = min(refusedAt[p], order[j].i)
					}
				}
			}
			if !mapped {
				s.loc = ix.chooseLocator(s.words)
			}
			if mapping == nil && len(s.words) > opts.MaxWords {
				s.key = setKey(s.words)
			}
			s.hash = WordHash(s.loc)
		}
	})
	if first := slices.Min(refusedAt); int(first) < n {
		words := ads[first].Words
		return nil, checkLocator(mapping[setKey(words)], words, opts.MaxWords)
	}

	// Node order. Sets located at themselves, nearly all of them, are in it
	// as they stand; the others are taken out, sorted, and merged back in
	// from the top, into the room they left.
	var moved []loadSet
	stay := sets[:0]
	for _, s := range sets {
		if s.hash == order[s.lo].h {
			stay = append(stay, s)
		} else {
			moved = append(moved, s)
		}
	}
	slices.SortFunc(moved, byNode)
	for at := len(sets) - 1; len(moved) > 0; at-- {
		if i, j := len(stay)-1, len(moved)-1; i >= 0 && byNode(stay[i], moved[j]) > 0 {
			sets[at], stay = stay[i], stay[:i]
		} else {
			sets[at], moved = moved[j], moved[:j]
		}
	}

	// Every node's records, exact-size and in node order, in the record
	// columns: node k holds sets[firstSet[k]:firstSet[k+1]]. A node has no
	// room, so an Insert into it moves it to the end of the columns instead
	// of growing over its neighbour.
	var firstSet []int32
	for i := range sets {
		if i == 0 || sets[i].hash != sets[i-1].hash {
			firstSet = append(firstSet, int32(i))
		}
	}
	firstSet = append(firstSet, int32(len(sets)))
	ix.nodes = make([]node, len(firstSet)-1)
	r := uint32(0)
	for k := range ix.nodes {
		r1 := r
		for _, s := range sets[firstSet[k]:firstSet[k+1]] {
			r1 += uint32(s.hi - s.lo)
		}
		ix.nodes[k] = node{off: r, n: r1 - r, cap: r1 - r}
		r = r1
	}
	ix.ids, ix.bids, ix.ctr, ix.campaign = make([]uint64, n), make([]int64, n), make([]uint16, n), make([]uint32, n)
	ix.sigs, ix.wcs, ix.sameKey = make([]uint64, n), make([]uint32, n), make([]bool, n)
	ix.wordAt, ix.textAt = make([]uint32, n), make([]uint32, n)
	ix.numAds, ix.sets = n, len(sets)

	// The nodes are written a range at a time. A first pass sizes each
	// range's share of the word IDs (one run per set, which its records
	// share) and of the arena, so that every range knows where to write.
	const rangesPerWorker = 4 // evens out ranges that hold a giant node
	ranges := chunks * rangesPerWorker
	nodeRange := func(p int) (lo, hi int) { return p * len(ix.nodes) / ranges, (p + 1) * len(ix.nodes) / ranges }
	wordsAt, textAt := make([]int, ranges+1), make([]int, ranges+1)
	parallel(workers, ranges, func(p int) {
		lo, hi := nodeRange(p)
		for _, s := range sets[firstSet[lo]:firstSet[hi]] {
			wordsAt[p+1] += len(s.words)
			for j := s.lo; j < s.hi; j++ {
				textAt[p+1] += textLen(&ads[order[j].i])
			}
		}
	})
	for p := 0; p < ranges; p++ {
		wordsAt[p+1] += wordsAt[p]
		textAt[p+1] += textAt[p]
	}
	if textAt[ranges] > maxArena {
		panic("core: phrase arena exceeds 4 GiB")
	}
	ix.wordIDs, ix.arena = make([]uint32, wordsAt[ranges]), make([]byte, textAt[ranges])
	ix.textUsed = textAt[ranges]
	for _, s := range sets {
		ix.wordsUsed += len(s.words) * int(s.hi-s.lo)
	}

	// Three writers with nothing in common: the probe table and the
	// mapping, each filled by one goroutine in node order, and the nodes'
	// records, filled a range of nodes at a time.
	rangeBytes := make([]int, ranges)
	parallel(workers, 2+ranges, func(p int) {
		switch p {
		case 0:
			ix.table.reserve(len(ix.nodes))
			for k := range ix.nodes {
				ix.table.put(sets[firstSet[k]].hash, uint32(k)+1)
				for _, s := range sets[firstSet[k]:firstSet[k+1]] {
					ix.addPrefixes(s.loc, uint32(s.hi-s.lo))
				}
			}
		case 1:
			for i := range sets {
				if s := &sets[i]; !slices.Equal(s.loc, s.words) {
					loc := make([]string, len(s.loc))
					for j, w := range s.loc {
						loc[j] = ix.voc.words[ix.voc.ids[w]]
					}
					ix.locOf[strings.Clone(s.key)] = loc
				}
			}
		default:
			p -= 2
			lo, hi := nodeRange(p)
			rangeBytes[p] = ix.writeNodes(ads, order, sets, firstSet, lo, hi, wordsAt[p], textAt[p])
		}
	})
	for _, b := range rangeBytes {
		ix.bytes += b
	}
	return ix, nil
}

// writeNodes writes the records of nodes lo … hi-1, their word IDs from
// wordIDs[words] on and their text from arena[text] on, and returns their
// cost-model bytes.
func (ix *Index) writeNodes(ads []corpus.Ad, order []placedAd, sets []loadSet, firstSet []int32, lo, hi, words, text int) (bytes int) {
	for k := lo; k < hi; k++ {
		r := ix.nodes[k].off
		for _, s := range sets[firstSet[k]:firstSet[k+1]] {
			at := uint32(words)
			for _, w := range s.words {
				ix.wordIDs[words] = ix.voc.ids[w]
				words++
			}
			sig := ix.voc.signature(ix.wordIDs[at:words])
			for j := s.lo; j < s.hi; j, r = j+1, r+1 {
				ad := &ads[order[j].i]
				ix.ids[r], ix.bids[r], ix.ctr[r], ix.campaign[r] = ad.ID, ad.Meta.BidMicros, ad.Meta.ClickRate, ad.Meta.CampaignID
				ix.sigs[r], ix.wcs[r], ix.sameKey[r], ix.wordAt[r] = sig, uint32(len(s.words)), j > s.lo, at
				ix.textAt[r] = uint32(text)
				text += putText(ix.arena[text:], ad)
				bytes += ad.Size()
			}
		}
	}
	return bytes
}

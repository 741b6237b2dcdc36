package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
	lo, hi int32 // its ads, as positions in the ordered input
	ad     int32 // the input position of its first ad, whose word IDs are the set's
	// loc is its locator, an entry of the loader's list of locators, or -1
	// where that is its own words.
	loc  int32
	hash uint64 // WordHash of the locator, the key of its node
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

// compareRuns orders two word sets of equal length, given as IDs into
// words, as strings.Compare orders their set keys, building the keys only
// where a word of one is a prefix of the other's, so that the separator
// after it decides.
func compareRuns(words []string, a, b []uint32) int {
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		x, y := words[a[i]], words[b[i]]
		if strings.HasPrefix(x, y) || strings.HasPrefix(y, x) {
			return strings.Compare(runKey(words, a[i:]), runKey(words, b[i:]))
		}
		return strings.Compare(x, y)
	}
	return 0
}

// runKey returns the set key of a word set given as IDs into words.
func runKey(words []string, ids []uint32) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(words[id])
	}
	return b.String()
}

// load builds the index over the ads at positions at of ads (all of them
// where at is nil; otherwise ascending), placing each word set at
// mapping's locator for it, or at the default one where mapping (which
// may be nil) has none. It refuses a mapping with an invalid locator for a
// set that occurs in the input, reporting the first such ad in input
// order. It is build, through the []corpus.Ad adapter.
func load(ads []corpus.Ad, at []int32, mapping map[string][]string, opts Options, workers int) (*Index, error) {
	return build(corpus.FromAds(ads), at, mapping, opts, workers, false)
}

// build is the one loader, behind every constructor: load over the
// columns in, for a frozen index (NewFrozen) where frozen is set, with its
// columns on the heap or in a region.
func build(in *corpus.Columns, at []int32, mapping map[string][]string, opts Options, workers int, frozen bool) (*Index, error) {
	opts.fillDefaults()
	ix := &Index{opts: opts, walkLimit: subsets(walkWords, opts.MaxWords), locOf: map[string][]string{}, frozen: frozen}
	n := in.Len()
	if at != nil {
		n = len(at)
	}
	if n == 0 {
		return ix, nil
	}
	if uint64(n) > MaxRecords {
		panic("core: more than MaxRecords ads")
	}
	chunks := max(1, workers)
	chunkOf := func(p, total int) (lo, hi int) { return p * total / chunks, (p + 1) * total / chunks }

	// Each ad's set hash, and the vocabulary: the input's, or, over some of
	// its ads, the words they hold, counted per chunk. From here on an ad
	// is its position in the input, so positions in ascending order keep
	// the input-order tie-breaks of a build over the ads they name.
	placed := make([]placedAd, n)
	var counts [][]uint32
	if at != nil {
		counts = make([][]uint32, chunks)
	}
	parallel(workers, chunks, func(p int) {
		var df []uint32
		if counts != nil {
			df = make([]uint32, len(in.Words))
			counts[p] = df
		}
		for lo, hi := chunkOf(p, n); lo < hi; lo++ {
			i := int32(lo)
			if at != nil {
				i = at[lo]
			}
			h := uint64(fnvOffset64)
			for k, w := range in.Run(int(i)) {
				h = hashExtend(h, k == 0, in.Words[w])
				if df != nil {
					df[w]++
				}
			}
			placed[lo] = placedAd{h, i}
		}
	})
	var remap []uint32
	ix.voc, remap = loadVocab(in, counts)
	counts = nil

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
	placed = nil
	parallel(workers, 256, func(bucket int) {
		slices.SortFunc(order[start[bucket]:start[bucket+1]], func(a, b placedAd) int {
			if a.h != b.h {
				return cmp.Compare(a.h, b.h)
			}
			x, y := in.Run(int(a.i)), in.Run(int(b.i))
			if c := cmp.Compare(len(x), len(y)); c != 0 {
				return c
			}
			if c := compareRuns(in.Words, x, y); c != 0 {
				return c
			}
			if c := cmp.Compare(in.ID[a.i], in.ID[b.i]); c != 0 {
				return c
			}
			return cmp.Compare(b.i, a.i)
		})
	})

	// The distinct sets are the runs of equal words, found first so that
	// their list is exact-size.
	runStart := make([]bool, n)
	numSets := 0
	for j := range order {
		if j == 0 || order[j].h != order[j-1].h || !slices.Equal(in.Run(int(order[j].i)), in.Run(int(order[j-1].i))) {
			runStart[j] = true
			numSets++
		}
	}
	sets := make([]loadSet, 0, numSets)
	for j := range order {
		if !runStart[j] {
			sets[len(sets)-1].hi++
			continue
		}
		sets = append(sets, loadSet{lo: int32(j), hi: int32(j) + 1, ad: order[j].i})
	}
	runStart = nil

	// Every set's locator: a mapped one, or the default. A mapped locator
	// that must be refused is reported for the first ad of its set in input
	// order, as a build ad by ad would. The locators that are not the sets'
	// own words are listed per chunk; hashing a locator passes through the
	// hashes of its proper prefixes, which each chunk lists for tableSlots.
	refusedAt := make([]int32, chunks)
	prefixes := make([][]uint64, chunks)
	chunkLocs := make([][][]uint32, chunks)
	parallel(workers, chunks, func(p int) {
		refusedAt[p] = int32(in.Len())
		lo, hi := chunkOf(p, len(sets))
		room := 0 // a valid locator has at most MaxWords words
		for _, s := range sets[lo:hi] {
			room += max(min(len(in.Run(int(s.ad))), opts.MaxWords)-1, 0)
		}
		prefixes[p] = make([]uint64, 0, room)
		var words []string
		var ids []uint32
		var key []byte
		for i := lo; i < hi; i++ {
			s := &sets[i]
			words = in.AppendWords(words[:0], int(s.ad))
			ids = appendRemapped(ids[:0], in.Run(int(s.ad)), remap)
			var loc []string
			mapped := false
			if mapping != nil {
				key = textnorm.AppendSetKey(key[:0], words)
				if loc, mapped = mapping[string(key)]; mapped && checkLocator(loc, words, opts.MaxWords) != nil {
					for j := s.lo; j < s.hi; j++ {
						refusedAt[p] = min(refusedAt[p], order[j].i)
					}
					continue
				}
			}
			if !mapped {
				loc = ix.chooseLocator(words, ids)
			}
			s.loc = -1
			if !slices.Equal(loc, words) {
				s.loc = int32(len(chunkLocs[p]))
				chunkLocs[p] = append(chunkLocs[p], locatorIDs(nil, loc, words, ids))
			}
			prefixes[p], s.hash = appendLocatorHashes(prefixes[p], loc)
		}
	})
	if first := slices.Min(refusedAt); int(first) < in.Len() {
		words := in.AppendWords(nil, int(first))
		return nil, checkLocator(mapping[setKey(words)], words, opts.MaxWords)
	}
	var locs [][]uint32 // the locators that are not their sets' words, as word IDs
	for p := range chunkLocs {
		lo, hi := chunkOf(p, len(sets))
		for i := lo; i < hi; i++ {
			if sets[i].loc >= 0 {
				sets[i].loc += int32(len(locs))
			}
		}
		locs = append(locs, chunkLocs[p]...)
	}
	chunkLocs = nil
	byNode := func(a, b loadSet) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		x, y := in.Run(int(a.ad)), in.Run(int(b.ad))
		if c := cmp.Compare(len(x), len(y)); c != 0 {
			return c
		}
		return compareRuns(in.Words, x, y)
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
	numNodes := len(firstSet) - 1

	// The nodes are written a range at a time. A first pass sizes each
	// range's share of the word IDs (one run per set, which its records
	// share) and of the arena, so that every range knows where to write.
	const rangesPerWorker = 4 // evens out ranges that hold a giant node
	ranges := chunks * rangesPerWorker
	nodeRange := func(p int) (lo, hi int) { return p * numNodes / ranges, (p + 1) * numNodes / ranges }
	wordsAt, textAt := make([]int, ranges+1), make([]int, ranges+1)
	parallel(workers, ranges, func(p int) {
		lo, hi := nodeRange(p)
		for _, s := range sets[firstSet[lo]:firstSet[hi]] {
			wordsAt[p+1] += len(in.Run(int(s.ad)))
			for j := s.lo; j < s.hi; j++ {
				textAt[p+1] += len(in.TextOf(int(order[j].i)))
			}
		}
	})
	for p := 0; p < ranges; p++ {
		wordsAt[p+1] += wordsAt[p]
		textAt[p+1] += textAt[p]
	}
	if uint64(textAt[ranges]) > maxArena {
		panic("core: phrase arena exceeds 4 GiB")
	}
	last := sets[len(sets)-1]
	wordless := int(firstSet[numNodes-1]) == len(sets)-1 && last.loc < 0 && len(in.Run(int(last.ad))) == 0
	slots := tableSlots(prefixes, sets, firstSet, wordless, workers)
	prefixes = nil

	// Every pointer-free column at its final size, in one region for a
	// frozen index; the arena on the heap.
	cols := &columns{frozen: frozen}
	carveAll := func() {
		ix.nodes = carve[node](cols, numNodes)
		ix.ids, ix.bids, ix.ctr, ix.campaign = carve[uint64](cols, n), carve[int64](cols, n), carve[uint16](cols, n), carve[uint32](cols, n)
		ix.sigs, ix.wcs, ix.sameKey = carve[uint64](cols, n), carve[uint32](cols, n), carve[bool](cols, n)
		ix.wordAt, ix.textAt = carve[uint32](cols, n), carve[uint32](cols, n)
		ix.wordIDs = carve[uint32](cols, wordsAt[ranges])
		ix.table.use(carve[uint64](cols, slots), carve[uint32](cols, slots), carve[uint32](cols, slots), carve[uint8](cols, slots))
		ix.voc.table, ix.voc.succ = carve[uint64](cols, tableSize(len(ix.voc.words))), carve[uint64](cols, len(ix.voc.words))
	}
	if frozen {
		carveAll()
		cols.r = newRegion(cols.sizes)
	}
	carveAll()
	ix.region = cols.r
	ix.arena = make([]byte, textAt[ranges])
	ix.numAds, ix.sets = n, len(sets)
	ix.textUsed = textAt[ranges]
	for _, s := range sets {
		ix.wordsUsed += len(in.Run(int(s.ad))) * int(s.hi-s.lo)
	}
	r := uint32(0)
	for k := range ix.nodes {
		r1 := r
		for _, s := range sets[firstSet[k]:firstSet[k+1]] {
			r1 += uint32(s.hi - s.lo)
		}
		ix.nodes[k] = node{off: r, n: r1 - r, cap: r1 - r}
		r = r1
	}

	// Four writers with nothing in common: the probe table with the
	// successor filters, the mapping and the vocabulary table, each filled
	// by one goroutine (the first two in node order), and the nodes'
	// records, filled a range of nodes at a time.
	rangeBytes := make([]int, ranges)
	parallel(workers, 3+ranges, func(p int) {
		switch p {
		case 0:
			var ids []uint32
			for k := range ix.nodes {
				ix.table.put(sets[firstSet[k]].hash, uint32(k)+1)
				for _, s := range sets[firstSet[k]:firstSet[k+1]] {
					var loc []uint32
					if s.loc >= 0 {
						loc = locs[s.loc]
					} else {
						ids = appendRemapped(ids[:0], in.Run(int(s.ad)), remap)
						loc = ids
					}
					ix.addPrefixes(loc, uint32(s.hi-s.lo))
				}
			}
		case 1:
			for _, s := range sets {
				if s.loc < 0 {
					continue
				}
				loc := make([]string, len(locs[s.loc]))
				for j, id := range locs[s.loc] {
					loc[j] = ix.voc.words[id]
				}
				ix.locOf[runKey(in.Words, in.Run(int(s.ad)))] = loc
			}
		case 2:
			ix.voc.fill()
		default:
			p -= 3
			lo, hi := nodeRange(p)
			rangeBytes[p] = ix.writeNodes(in, remap, order, sets, firstSet, lo, hi, wordsAt[p], textAt[p])
		}
	})
	for _, b := range rangeBytes {
		ix.bytes += b
	}
	return ix, nil
}

// writeNodes writes the records of nodes lo … hi-1, their word IDs (the
// input's, through remap where it is not nil) from wordIDs[words] on and
// their text from arena[text] on, and returns their cost-model bytes.
func (ix *Index) writeNodes(in *corpus.Columns, remap []uint32, order []placedAd, sets []loadSet, firstSet []int32, lo, hi, words, text int) (bytes int) {
	for k := lo; k < hi; k++ {
		r := ix.nodes[k].off
		for _, s := range sets[firstSet[k]:firstSet[k+1]] {
			at := uint32(words)
			for _, w := range in.Run(int(s.ad)) {
				if remap != nil {
					w = remap[w]
				}
				ix.wordIDs[words] = w
				words++
			}
			sig := ix.voc.signature(ix.wordIDs[at:words])
			for j := s.lo; j < s.hi; j, r = j+1, r+1 {
				i := order[j].i
				ix.ids[r], ix.bids[r], ix.ctr[r], ix.campaign[r] = in.ID[i], in.Bid[i], in.ClickRate[i], in.Campaign[i]
				ix.sigs[r], ix.wcs[r], ix.sameKey[r], ix.wordAt[r] = sig, uint32(words)-at, j > s.lo, at
				ix.textAt[r] = uint32(text)
				t := in.TextOf(int(i))
				text += copy(ix.arena[text:], t)
				_, _, size := measureText(t)
				bytes += size
			}
		}
	}
	return bytes
}

// appendRemapped appends the word IDs run, an ad's in the loader's input,
// to dst as the index numbers them: through remap where it is not nil.
func appendRemapped(dst, run, remap []uint32) []uint32 {
	if remap == nil {
		return append(dst, run...)
	}
	for _, w := range run {
		dst = append(dst, remap[w])
	}
	return dst
}

// appendLocatorHashes appends the hashes of the proper prefixes of loc to
// dst, hashed as addPrefixes hashes them, and returns the hash of loc
// itself, its node's key (WordHash).
func appendLocatorHashes(dst []uint64, loc []string) ([]uint64, uint64) {
	h := uint64(fnvOffset64)
	for i, w := range loc {
		if i > 0 {
			dst = append(dst, h)
		}
		h = hashExtend(h, i == 0, w)
	}
	return dst, h
}

// tableSlots is the capacity of the loader's probe table, sized up front
// for its distinct keys: the nodes' keys and the proper prefixes of their
// sets' locators, listed by chunk in prefixes. That is the capacity a
// table sized for the nodes grows to under the loader's upserts
// (tableSize), so the loader fills it without a rehash. Such a table
// grows at the first upsert past its load bound; where the last upsert
// enters a new key — wordless: the last node holds only the wordless set,
// which prefixes nothing — it ends sized for one key fewer.
//
// Each chunk's list is partitioned in place by the keys' top byte; then,
// a top byte at a time, the node keys with that byte (a run: the nodes
// are in key order) and the chunks' prefixes with it go into one small
// hash set, which counts the prefixes that are new.
func tableSlots(prefixes [][]uint64, sets []loadSet, firstSet []int32, wordless bool, workers int) int {
	numNodes := len(firstSet) - 1
	bounds := make([][257]int, len(prefixes))
	parallel(workers, len(prefixes), func(p int) { bounds[p] = partitionByTopByte(prefixes[p]) })
	nodeKey := func(k int) uint64 { return sets[firstSet[k]].hash }
	nodesFrom := func(b int) int { return sort.Search(numNodes, func(k int) bool { return int(nodeKey(k)>>56) >= b }) }
	workers = max(1, workers)
	fresh := make([]int, workers)
	parallel(workers, workers, func(w int) {
		var seen keySet
		for b := w; b < 256; b += workers {
			lo, hi := nodesFrom(b), nodesFrom(b+1)
			size := hi - lo
			for p := range bounds {
				size += bounds[p][b+1] - bounds[p][b]
			}
			seen.reset(size)
			for k := lo; k < hi; k++ {
				seen.add(nodeKey(k))
			}
			for p, list := range prefixes {
				for _, h := range list[bounds[p][b]:bounds[p][b+1]] {
					if seen.add(h) {
						fresh[w]++
					}
				}
			}
		}
	})
	keys := numNodes
	for _, n := range fresh {
		keys += n
	}
	if wordless {
		keys--
	}
	return tableSize(max(numNodes, keys))
}

// partitionByTopByte orders hashes by their top byte, in place, and
// returns where each byte's run starts (and, at 256, where the last ends).
func partitionByTopByte(hashes []uint64) (start [257]int) {
	for _, h := range hashes {
		start[h>>56+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	next := start // each run's first position not yet settled
	for b := 0; b < 256; b++ {
		for next[b] < start[b+1] {
			if t := hashes[next[b]] >> 56; int(t) == b {
				next[b]++
			} else {
				hashes[next[b]], hashes[next[t]] = hashes[next[t]], hashes[next[b]]
				next[t]++
			}
		}
	}
	return start
}

// keySet is a set of 64-bit hashes: open addressing in one array, reused
// from one use to the next, with 0 kept apart as the empty slot's mark.
type keySet struct {
	slots []uint64
	shift uint
	zero  bool
}

// reset empties the set and sizes it for n keys at most half full.
func (s *keySet) reset(n int) {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	if cap(s.slots) < size {
		s.slots = make([]uint64, size)
	}
	s.slots, s.shift, s.zero = s.slots[:size], shift, false
	clear(s.slots)
}

// add adds h and reports whether it was new.
func (s *keySet) add(h uint64) bool {
	if h == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	mask := uint64(len(s.slots) - 1)
	for i := (h * probeFib) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return false
		case 0:
			s.slots[i] = h
			return true
		}
	}
}

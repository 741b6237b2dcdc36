package core

import (
	"slices"
	"sort"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// byID orders match results by advertisement ID.
func byID(a, b *corpus.Ad) int {
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// sortMatchesByID orders a match segment by ad ID. Match sets are small
// and nearly sorted (each node contributes runs in ID order), so direct
// insertion sort beats the generic comparator sort up to a few dozen
// elements.
func sortMatchesByID(m []*corpus.Ad) {
	// Most queries draw all their matches from one node run, which is
	// already ID-ordered: detect that with one linear scan before paying
	// for a sort.
	sorted := true
	for i := 1; i < len(m); i++ {
		if m[i].ID < m[i-1].ID {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(m) > 32 {
		slices.SortFunc(m, byID)
		return
	}
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && m[j].ID < m[j-1].ID; j-- {
			m[j], m[j-1] = m[j-1], m[j]
		}
	}
}

// sigColumnBytes is the number of bytes the cost model charges per record
// the signature sweep rejects: the 64-bit signature itself. The signature
// column streams sequentially, so a rejected record costs a fraction of
// its full size; survivors are charged size(A) as Equation (2) prescribes
// for records actually verified (their 8 signature bytes are subsumed in
// that full-record charge, keeping the columnar path's accounted volume
// at or below the pre-columnar scan's for every query).
const sigColumnBytes = 8

// Scratch holds the reusable per-query buffers of the allocation-free
// query path: the prepared query, its signature and sorted word hashes,
// the visited-node list with its dedup set, and the per-node survivor
// index buffer. A Scratch is not safe for concurrent use; callers that
// care about allocations keep one per worker (the adindex package pools
// them) and pass the same instance to successive queries. The zero value
// is ready to use.
type Scratch struct {
	q       []string
	qsig    uint64
	qhashes []uint64
	visited []*node
	seen    nodeSet
	surv    []int32
}

// Reset drops the scratch's references into index internals while keeping
// buffer capacity, so a pooled Scratch never pins nodes of a retired index
// generation.
func (sc *Scratch) Reset() {
	sc.q = sc.q[:0]
	sc.qsig = 0
	sc.qhashes = sc.qhashes[:0]
	v := sc.visited[:cap(sc.visited)]
	clear(v)
	sc.visited = sc.visited[:0]
	sc.seen.reset()
	sc.surv = sc.surv[:0]
}

// prepareSignature fills the scratch's query signature and sorted query
// word hashes for the prepared query q.
func (sc *Scratch) prepareSignature(q []string) {
	sc.qhashes = appendSortedWordHashes(sc.qhashes[:0], q)
	sc.qsig = hashesSignature(sc.qhashes)
}

// BroadMatch returns every indexed ad whose word set is a subset of the
// query's word set (Section III-A semantics). queryWords must be canonical
// (use textnorm.WordSet on raw text). Results are ordered by ad ID. The
// returned pointers reference index-internal storage and remain valid only
// until the next mutation.
//
// counters, when non-nil, accumulates the memory-access accounting of this
// query under the Section IV-A cost model.
func (ix *Index) BroadMatch(queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.AppendBroadMatch(nil, queryWords, counters, nil)
}

// AppendBroadMatch is BroadMatch appending into dst, reusing sc's buffers;
// both dst and sc may be nil. The appended segment is ordered by ad ID.
// With a warmed Scratch and a reused dst the whole query path performs no
// allocations.
func (ix *Index) AppendBroadMatch(dst []*corpus.Ad, queryWords []string, counters *costmodel.Counters, sc *Scratch) []*corpus.Ad {
	return ix.AppendBroadMatchBudget(dst, queryWords, counters, sc, nil)
}

// AppendBroadMatchBudget is AppendBroadMatch under a cost budget. A nil
// budget matches without bound. With a budget, enumeration and node
// scanning charge it as they go and stop at node granularity once it is
// exhausted; the appended segment is then a (still ID-ordered, fully
// verified) subset of the complete match set, and the budget's
// Exhausted/Spent/CutoffApplied report what happened.
func (ix *Index) AppendBroadMatchBudget(dst []*corpus.Ad, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []*corpus.Ad {
	return ix.appendSubsetMatch(dst, nil, queryWords, counters, sc, b)
}

// AppendPhraseMatch appends the ads whose bid phrase occurs in tokens (the
// query's normalized token sequence, whose canonical word set is
// queryWords) as a contiguous, ordered subsequence. Retrieval is the
// broad-match walk — a contiguously occurring phrase's word set is a
// subset of the query's — under the same scratch, budget and counters;
// only the node-side test differs, as Section III-B describes.
func (ix *Index) AppendPhraseMatch(dst []*corpus.Ad, tokens, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []*corpus.Ad {
	return ix.appendSubsetMatch(dst, tokens, queryWords, counters, sc, b)
}

// appendSubsetMatch is the subset walk behind broad and phrase match:
// enumerate the candidate nodes of queryWords, scan each for records whose
// word set is a subset, and — when phraseTokens is non-nil — keep of each
// node's matches only those whose phrase occurs contiguously in it.
func (ix *Index) appendSubsetMatch(dst []*corpus.Ad, phraseTokens, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []*corpus.Ad {
	var local Scratch
	if sc == nil {
		sc = &local
	}
	q, cut := PrepareQuery(sc.q[:0], queryWords, ix.df, ix.opts.MaxQueryWords)
	if cut && b != nil {
		b.cutoff = true
	}
	sc.q = q
	if len(q) == 0 {
		if counters != nil {
			counters.Queries++
		}
		return dst
	}
	visited := ix.appendCandidateNodes(q, counters, sc, b)
	mark := len(dst)
	if len(visited) > 0 {
		sc.prepareSignature(q)
		for _, n := range visited {
			if b != nil && b.exhausted {
				break
			}
			at := len(dst)
			dst = ix.scanNode(n, q, counters, sc, dst, b)
			if phraseTokens != nil {
				dst = keepContiguous(dst, at, phraseTokens)
			}
		}
	}
	sortMatchesByID(dst[mark:])
	if counters != nil {
		counters.Queries++
		counters.Matches += int64(len(dst) - mark)
	}
	return dst
}

// keepContiguous drops from dst[at:] the records whose phrase does not
// occur contiguously in tokens.
func keepContiguous(dst []*corpus.Ad, at int, tokens []string) []*corpus.Ad {
	w := at
	for _, rec := range dst[at:] {
		if textnorm.ContainsContiguous(tokens, textnorm.Tokenize(rec.Phrase)) {
			dst[w] = rec
			w++
		}
	}
	clear(dst[w:])
	return dst[:w]
}

// BroadMatchText is BroadMatch on raw query text.
func (ix *Index) BroadMatchText(query string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.BroadMatch(textnorm.WordSet(query), counters)
}

// AppendExactMatch appends the ads whose bid phrase equals tokens — the
// query's normalized, duplicate-folded token sequence, whose canonical
// word set is queryWords. It is a single hash lookup, the node of the
// query's own word set, so there is no enumeration to cut off or to
// budget. The appended segment is ordered by ad ID.
func (ix *Index) AppendExactMatch(dst []*corpus.Ad, tokens, queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	if counters != nil {
		counters.Queries++
	}
	if len(queryWords) == 0 {
		return dst
	}
	key := setKey(queryWords)
	loc, ok := ix.lookupLocator(key, counters)
	if !ok {
		return dst
	}
	n := ix.table.get(WordHash(loc))
	if n == nil {
		return dst
	}
	if counters != nil {
		counters.RandomAccesses++
		counters.NodesVisited++
	}
	mark := len(dst)
	// An equal word set has an equal signature, so the signature column
	// rejects the node's other sets (accounted like the scanNode sweep).
	qsig := SetSignature(queryWords)
	for i := range n.records {
		rec := &n.records[i]
		if len(rec.Words) > len(queryWords) {
			break
		}
		if n.sigs[i] != qsig {
			if counters != nil {
				counters.SignatureChecks++
				counters.SignatureRejects++
				counters.BytesScanned += sigColumnBytes
			}
			continue
		}
		if counters != nil {
			counters.SignatureChecks++
			counters.PhrasesChecked++
			counters.BytesScanned += int64(rec.Size())
		}
		if rec.SetKey() != key {
			continue
		}
		if slices.Equal(textnorm.FoldDuplicates(textnorm.Tokenize(rec.Phrase)), tokens) {
			dst = append(dst, rec)
		}
	}
	sortMatchesByID(dst[mark:])
	if counters != nil {
		counters.Matches += int64(len(dst) - mark)
	}
	return dst
}

// lookupLocator resolves a set key to its locator, charging one hash
// probe. (locOf lookups model the same H access as subset probes.)
func (ix *Index) lookupLocator(key string, counters *costmodel.Counters) ([]string, bool) {
	if counters != nil {
		counters.HashProbes++
		counters.RandomAccesses++
		counters.BytesScanned += int64(ix.opts.MemHash)
	}
	loc, ok := ix.locOf[key]
	return loc, ok
}

// PrepareQuery appends the prepared form of queryWords to buf: words with
// no document frequency in df are dropped (this cannot change the result,
// since every match's words are indexed), and over-long queries are cut
// to their maxQueryWords rarest indexed words (the Section IV-B heuristic
// cutoff, which may lose matches on extreme queries). The second return
// reports whether the cutoff dropped words, so budgeted callers can
// surface the loss instead of hiding it. Every structure that answers
// queries over an index's nodes prepares them here, with that index's df
// and MaxQueryWords; with a warmed buf and no cutoff it allocates nothing.
func PrepareQuery(buf, queryWords []string, df map[string]int, maxQueryWords int) ([]string, bool) {
	for _, w := range queryWords {
		if df[w] > 0 {
			buf = append(buf, w)
		}
	}
	if len(buf) <= maxQueryWords {
		return buf, false
	}
	return append(buf[:0], rarest(buf, maxQueryWords, df)...), true
}

// appendCandidateNodes appends to sc.visited each distinct data node
// reachable from a non-empty subset of q up to MaxWords words (the bound
// established by long-phrase re-mapping), probing H with an incrementally
// extended hash so no subset slice is ever materialized. Deduplication —
// needed because WordHash can collide between enumerated subsets and
// because re-mapped nodes are reachable via multiple subset locators —
// goes through sc.seen, an open-addressed set keyed by node id, so the
// per-hit cost stays O(1) however many nodes a long query touches. The
// recursion carries no closure state, so a warmed scratch enumerates
// without allocating.
func (ix *Index) appendCandidateNodes(q []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []*node {
	k := ix.opts.MaxWords
	if k > len(q) {
		k = len(q)
	}
	sc.seen.reset()
	sc.visited = ix.enumSubsets(q, 0, fnvOffset64, 0, k, counters, sc.visited[:0], &sc.seen, b)
	return sc.visited
}

// enumSubsets walks the subset DFS with locator-prefix pruning: each
// considered subset is charged one hash probe (the two-level check of the
// prefix filter and, on a filter hit, the node table counts as a single
// probe of H under the Section V-A model), and a subset that is not a
// prefix of any live locator terminates its whole subtree — no locator,
// and therefore no node, can exist at or below it. Probe counts thus stay
// bounded by LookupsForQueryLength but track the locators actually
// indexed, which is what keeps long queries off the 2^n cliff.
//
// A non-nil budget is charged one unit per considered subset; once it
// is exhausted the walk unwinds immediately, leaving visited holding
// the nodes reached so far.
func (ix *Index) enumSubsets(q []string, start int, h uint64, size, k int, counters *costmodel.Counters, visited []*node, seen *nodeSet, b *Budget) []*node {
	for i := start; i < len(q); i++ {
		if b != nil && !b.Charge(1) {
			return visited
		}
		nh := hashExtend(h, size == 0, q[i])
		if counters != nil {
			counters.HashProbes++
			counters.RandomAccesses++
			counters.BytesScanned += int64(ix.opts.MemHash)
		}
		n, ok := ix.table.lookup(nh)
		if !ok {
			continue
		}
		if n != nil {
			if seen.add(n.id) {
				if counters != nil {
					counters.RandomAccesses++
					counters.NodesVisited++
				}
				visited = append(visited, n)
			}
		}
		if size+1 < k {
			visited = ix.enumSubsets(q, i+1, nh, size+1, k, counters, visited, seen, b)
		}
	}
	return visited
}

// scanNode appends all records of n that broad-match q, in three stages:
//
//  1. The word-count column bounds the scan to records no longer than the
//     query (binary search; the node is sorted by word count).
//  2. The signature column is swept branch-free — every record writes its
//     index into the survivor buffer, and the write position advances only
//     when sig &^ qsig == 0 — so the common reject path carries no
//     mispredictable branch and reads 8 bytes per record.
//  3. Survivors are verified on the packed word-hash column (integer
//     merge) and finally by the exact string subset check, charged the
//     full record size per Equation (2).
//
// Signature work is accounted separately from full phrase checks:
// SignatureChecks/SignatureRejects count the sweep, PhrasesChecked counts
// only verified survivors.
// A non-nil budget is charged the scan width up front and the node is
// then completed whole (node granularity: a node's records are never
// split, so every appended match is fully verified); the caller checks
// exhaustion between nodes.
func (ix *Index) scanNode(n *node, q []string, counters *costmodel.Counters, sc *Scratch, matches []*corpus.Ad, b *Budget) []*corpus.Ad {
	qlen := uint32(len(q))
	wcs := n.wcs
	limit := len(wcs)
	if limit > 0 && wcs[limit-1] > qlen {
		limit = sort.Search(len(wcs), func(i int) bool { return wcs[i] > qlen })
	}
	if limit == 0 {
		return matches
	}
	if b != nil {
		b.Charge(int64(limit))
	}

	if cap(sc.surv) < limit {
		sc.surv = make([]int32, limit)
	}
	surv := sc.surv[:limit]
	qsig := sc.qsig
	k := 0
	for i, sig := range n.sigs[:limit] {
		surv[k] = int32(i)
		if sig&^qsig == 0 {
			k++
		}
	}
	if counters != nil {
		counters.SignatureChecks += int64(limit)
		counters.SignatureRejects += int64(limit - k)
		counters.BytesScanned += int64(limit-k) * sigColumnBytes
	}

	// A subset verdict depends only on the record's word set, and records
	// of one set are adjacent (sameKey runs), so each run is verified once
	// and the verdict reused for the rest of the run. The reuse only
	// applies across consecutive survivor indices: records of one set
	// share a signature, so a run is either swept out or survives whole.
	prev, prevOK := -2, false
	for _, si := range surv[:k] {
		i := int(si)
		rec := &n.records[i]
		if counters != nil {
			counters.PhrasesChecked++
			counters.BytesScanned += int64(rec.Size())
		}
		var ok bool
		if i == prev+1 && n.sameKey[i] {
			ok = prevOK
		} else {
			ok = hashSubset(n.recHashes(i), sc.qhashes) && textnorm.IsSubset(rec.Words, q)
		}
		prev, prevOK = i, ok
		if ok {
			matches = append(matches, rec)
		}
	}
	return matches
}

// LookupsForQueryLength returns the number of hash probes a query with n
// indexed words incurs: min(2^n - 1, sum_{i=1..max_words} C(n, i)), the
// bound from Section IV-B.
func (ix *Index) LookupsForQueryLength(n int) int {
	if n > ix.opts.MaxQueryWords {
		n = ix.opts.MaxQueryWords
	}
	k := ix.opts.MaxWords
	if k > n {
		k = n
	}
	total := 0
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - i + 1) / i
		total += c
	}
	return total
}

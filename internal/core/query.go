package core

import (
	"cmp"
	"slices"
	"sort"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// sortRefsByID orders a match segment by ad ID. Match sets are small
// and nearly sorted (each node contributes runs in ID order), so direct
// insertion sort beats the generic comparator sort up to a few dozen
// elements.
func (ix *Index) sortRefsByID(m []Ref) {
	// Most queries draw all their matches from one node run, which is
	// already ID-ordered: detect that with one linear scan before paying
	// for a sort.
	ids := ix.ids
	sorted := true
	for i := 1; i < len(m); i++ {
		if ids[m[i]] < ids[m[i-1]] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(m) > 32 {
		slices.SortFunc(m, func(a, b Ref) int { return cmp.Compare(ids[a], ids[b]) })
		return
	}
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && ids[m[j]] < ids[m[j-1]]; j-- {
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
// query path: the prepared query with its word IDs and signature, the
// visited-node list with its dedup set, the per-node survivor buffer, a
// token buffer for the order-sensitive match types, and the records and
// ads AppendBroadMatch copies out. A Scratch is not safe for concurrent
// use; callers that care about allocations keep one per worker (the
// adindex package pools them) and pass the same instance to successive
// queries. The zero value is ready to use.
type Scratch struct {
	q       []string
	qids    []uint32
	qsig    uint64
	visited []uint32
	seen    nodeSet
	surv    []int32
	toks    []string
	refs    []Ref
	ads     []corpus.Ad
	strs    []string
}

// Reset drops the scratch's references into index and query storage while
// keeping buffer capacity, so a pooled Scratch never pins a retired index
// generation.
func (sc *Scratch) Reset() {
	clear(sc.q[:cap(sc.q)])
	sc.q = sc.q[:0]
	sc.qids = sc.qids[:0]
	sc.qsig = 0
	sc.visited = sc.visited[:0]
	sc.seen.reset()
	sc.surv = sc.surv[:0]
	clear(sc.toks[:cap(sc.toks)])
	sc.toks = sc.toks[:0]
	sc.refs = sc.refs[:0]
	clear(sc.ads[:cap(sc.ads)])
	sc.ads = sc.ads[:0]
	clear(sc.strs[:cap(sc.strs)])
	sc.strs = sc.strs[:0]
}

// BroadMatch returns every indexed ad whose word set is a subset of the
// query's word set (Section III-A semantics). queryWords must be canonical
// (use textnorm.WordSet on raw text). Results are ordered by ad ID; they
// are copies the caller may keep (their strings are the index's).
//
// counters, when non-nil, accumulates the memory-access accounting of this
// query under the Section IV-A cost model.
func (ix *Index) BroadMatch(queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.AppendBroadMatch(nil, queryWords, counters, nil)
}

// AppendBroadMatch is BroadMatch appending into dst, reusing sc's buffers;
// both dst and sc may be nil. The appended segment is ordered by ad ID.
// The appended ads live in sc: they are overwritten by sc's next
// AppendBroadMatch. With a warmed Scratch and a reused dst the whole query
// path, copy-out included, performs no allocations.
func (ix *Index) AppendBroadMatch(dst []*corpus.Ad, queryWords []string, counters *costmodel.Counters, sc *Scratch) []*corpus.Ad {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.refs = ix.AppendBroadRefs(sc.refs[:0], queryWords, counters, sc, nil)
	if len(sc.refs) == 0 {
		return dst
	}
	sc.ads, sc.strs = slices.Grow(sc.ads[:0], len(sc.refs)), sc.strs[:0]
	for _, r := range sc.refs {
		sc.ads, sc.strs = ix.AppendAd(sc.ads, sc.strs, r)
	}
	for i := range sc.ads {
		dst = append(dst, &sc.ads[i])
	}
	return dst
}

// AppendBroadRefs appends the records whose word set is a subset of the
// query's (BroadMatch) to dst, ordered by ad ID, reusing sc's buffers; sc
// may be nil. A nil budget matches without bound. With a budget,
// enumeration and node scanning charge it as they go and stop at node
// granularity once it is exhausted; the appended segment is then a (still
// ID-ordered, fully verified) subset of the complete match set, and the
// budget's Exhausted/Spent/CutoffApplied report what happened. With a
// warmed Scratch and a reused dst it performs no allocations.
func (ix *Index) AppendBroadRefs(dst []Ref, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []Ref {
	return ix.appendSubsetRefs(dst, nil, queryWords, counters, sc, b)
}

// AppendPhraseRefs appends the records whose bid phrase occurs in tokens
// (the query's normalized token sequence, whose canonical word set is
// queryWords) as a contiguous, ordered subsequence. Retrieval is the
// broad-match walk — a contiguously occurring phrase's word set is a
// subset of the query's — under the same scratch, budget and counters;
// only the node-side test differs, as Section III-B describes.
func (ix *Index) AppendPhraseRefs(dst []Ref, tokens, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []Ref {
	return ix.appendSubsetRefs(dst, tokens, queryWords, counters, sc, b)
}

// appendSubsetRefs is the subset walk behind broad and phrase match:
// enumerate the candidate nodes of queryWords, scan each for records whose
// word set is a subset, and — when phraseTokens is non-nil — keep of each
// node's matches only those whose phrase occurs contiguously in it.
func (ix *Index) appendSubsetRefs(dst []Ref, phraseTokens, queryWords []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []Ref {
	if sc == nil {
		sc = new(Scratch)
	}
	if ix.prepare(sc, queryWords) && b != nil {
		b.cutoff = true
	}
	if len(sc.q) == 0 {
		if counters != nil {
			counters.Queries++
		}
		return dst
	}
	visited := ix.appendCandidateNodes(sc.q, counters, sc, b)
	mark := len(dst)
	if len(visited) > 0 {
		sc.qsig = ix.voc.signature(sc.qids)
		for _, v := range visited {
			if b != nil && b.exhausted {
				break
			}
			at := len(dst)
			dst = ix.scanNode(ix.nodes[v-1], counters, sc, dst, b)
			if phraseTokens != nil {
				dst = ix.keepContiguous(dst, at, phraseTokens, sc)
			}
		}
	}
	ix.sortRefsByID(dst[mark:])
	if counters != nil {
		counters.Queries++
		counters.Matches += int64(len(dst) - mark)
	}
	return dst
}

// prepare fills sc.q and sc.qids with the prepared query (PrepareQuery,
// on this index's vocabulary) and reports whether the cutoff dropped
// words.
func (ix *Index) prepare(sc *Scratch, queryWords []string) (cut bool) {
	sc.q, sc.qids = sc.q[:0], sc.qids[:0]
	for _, w := range queryWords {
		if id, ok := ix.voc.id(w); ok && ix.voc.df[id] > 0 {
			sc.q = append(sc.q, w)
			sc.qids = append(sc.qids, id)
		}
	}
	if len(sc.q) <= ix.opts.MaxQueryWords {
		return false
	}
	sc.q = append(sc.q[:0], rarest(sc.q, ix.opts.MaxQueryWords, ix.voc.freq)...)
	sc.qids, _ = ix.voc.appendIDs(sc.qids[:0], sc.q)
	return true
}

// keepContiguous drops from dst[at:] the records whose phrase does not
// occur contiguously in tokens.
func (ix *Index) keepContiguous(dst []Ref, at int, tokens []string, sc *Scratch) []Ref {
	w := at
	for _, r := range dst[at:] {
		sc.toks = textnorm.AppendTokens(sc.toks[:0], ix.phrase(uint32(r)))
		if textnorm.ContainsContiguous(tokens, sc.toks) {
			dst[w] = r
			w++
		}
	}
	return dst[:w]
}

// BroadMatchText is BroadMatch on raw query text.
func (ix *Index) BroadMatchText(query string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.BroadMatch(textnorm.WordSet(query), counters)
}

// AppendExactRefs appends the records whose bid phrase equals tokens —
// the query's normalized, duplicate-folded token sequence, whose canonical
// word set is queryWords. It is a single hash lookup, the node of the
// query's own word set, so there is no enumeration to cut off or to
// budget. The appended segment is ordered by ad ID. sc may be nil.
func (ix *Index) AppendExactRefs(dst []Ref, tokens, queryWords []string, counters *costmodel.Counters, sc *Scratch) []Ref {
	if counters != nil {
		counters.Queries++
	}
	if len(queryWords) == 0 {
		return dst
	}
	// One probe of H, charged whether or not the set is indexed.
	if counters != nil {
		counters.HashProbes++
		counters.RandomAccesses++
		counters.BytesScanned += memHash
	}
	var buf wordIDBuf
	_, _, k, ids, ok := ix.resolve(queryWords, buf[:0])
	if !ok {
		return dst
	}
	if sc == nil {
		sc = new(Scratch)
	}
	nd := ix.nodes[k]
	first := ix.search(k, ids, 0)
	if first == nd.n || !slices.Equal(ix.recWords(nd.off+first), ids) {
		return dst // the node holds other sets only
	}
	if counters != nil {
		counters.RandomAccesses++
		counters.NodesVisited++
	}
	mark := len(dst)
	// An equal word set has an equal signature, so the signature column
	// rejects the node's other sets (accounted like the scanNode sweep).
	qsig := ix.voc.signature(ids)
	qlen := uint32(len(queryWords))
	for r := nd.off; r < nd.off+nd.n && ix.wcs[r] <= qlen; r++ {
		if ix.sigs[r] != qsig {
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
			counters.BytesScanned += int64(ix.size(r))
		}
		if ix.wcs[r] != qlen || !slices.Equal(ix.recWords(r), ids) {
			continue
		}
		sc.toks = textnorm.AppendTokens(sc.toks[:0], ix.phrase(r))
		if slices.Equal(textnorm.Folded(sc.toks), tokens) {
			dst = append(dst, Ref(r))
		}
	}
	ix.sortRefsByID(dst[mark:])
	if counters != nil {
		counters.Matches += int64(len(dst) - mark)
	}
	return dst
}

// PrepareQuery appends the prepared form of queryWords to buf: words with
// no document frequency in df are dropped (this cannot change the result,
// since every match's words are indexed), and over-long queries are cut
// to their maxQueryWords rarest indexed words (the Section IV-B heuristic
// cutoff, which may lose matches on extreme queries). The second return
// reports whether the cutoff dropped words, so budgeted callers can
// surface the loss instead of hiding it. Every structure that answers
// queries over an index's nodes prepares them this way, with that index's
// df (DocFreqs) and MaxQueryWords; with a warmed buf and no cutoff it
// allocates nothing.
func PrepareQuery(buf, queryWords []string, df map[string]int, maxQueryWords int) ([]string, bool) {
	for _, w := range queryWords {
		if df[w] > 0 {
			buf = append(buf, w)
		}
	}
	if len(buf) <= maxQueryWords {
		return buf, false
	}
	return append(buf[:0], rarest(buf, maxQueryWords, func(w string) int { return df[w] })...), true
}

// appendCandidateNodes appends to sc.visited each distinct data node
// reachable from a non-empty subset of q up to MaxWords words (the bound
// established by long-phrase re-mapping), probing H with an incrementally
// extended hash so no subset slice is ever materialized. Deduplication —
// needed because WordHash can collide between enumerated subsets and
// because re-mapped nodes are reachable via multiple subset locators —
// goes through sc.seen, an open-addressed set keyed by node, so the
// per-hit cost stays O(1) however many nodes a long query touches. The
// recursion carries no closure state, so a warmed scratch enumerates
// without allocating.
func (ix *Index) appendCandidateNodes(q []string, counters *costmodel.Counters, sc *Scratch, b *Budget) []uint32 {
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
func (ix *Index) enumSubsets(q []string, start int, h uint64, size, k int, counters *costmodel.Counters, visited []uint32, seen *nodeSet, b *Budget) []uint32 {
	for i := start; i < len(q); i++ {
		if b != nil && !b.Charge(1) {
			return visited
		}
		nh := hashExtend(h, size == 0, q[i])
		if counters != nil {
			counters.HashProbes++
			counters.RandomAccesses++
			counters.BytesScanned += memHash
		}
		v, ok := ix.table.lookup(nh)
		if !ok {
			continue
		}
		if v != 0 && seen.add(uint64(v)) {
			if counters != nil {
				counters.RandomAccesses++
				counters.NodesVisited++
			}
			visited = append(visited, v)
		}
		if size+1 < k {
			visited = ix.enumSubsets(q, i+1, nh, size+1, k, counters, visited, seen, b)
		}
	}
	return visited
}

// scanNode appends all records of nd that broad-match the prepared query
// in sc, in three stages:
//
//  1. The word-count column bounds the scan to records no longer than the
//     query (binary search; the node is sorted by word count).
//  2. The signature column is swept branch-free — every record writes its
//     index into the survivor buffer, and the write position advances only
//     when sig &^ qsig == 0 — so the common reject path carries no
//     mispredictable branch and reads 8 bytes per record.
//  3. Survivors are verified by the exact subset check on word IDs,
//     charged the full record size per Equation (2).
//
// Signature work is accounted separately from full phrase checks:
// SignatureChecks/SignatureRejects count the sweep, PhrasesChecked counts
// only verified survivors.
// A non-nil budget is charged the scan width up front and the node is
// then completed whole (node granularity: a node's records are never
// split, so every appended match is fully verified); the caller checks
// exhaustion between nodes.
func (ix *Index) scanNode(nd node, counters *costmodel.Counters, sc *Scratch, matches []Ref, b *Budget) []Ref {
	qlen := uint32(len(sc.q))
	wcs := ix.wcs[nd.off : nd.off+nd.n]
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
	for i, sig := range ix.sigs[nd.off : nd.off+uint32(limit)] {
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
		r := nd.off + uint32(i)
		if counters != nil {
			counters.PhrasesChecked++
			counters.BytesScanned += int64(ix.size(r))
		}
		var ok bool
		if i == prev+1 && ix.sameKey[r] {
			ok = prevOK
		} else {
			ok = subsetIDs(ix.recWords(r), sc.qids)
		}
		prev, prevOK = i, ok
		if ok {
			matches = append(matches, Ref(r))
		}
	}
	return matches
}

// subsetIDs reports whether every word of sub occurs in super, both word
// sets given as IDs in canonical order: a word of sub can only occur in
// super after the previous one's occurrence, so one forward pass decides.
func subsetIDs(sub, super []uint32) bool {
	j := 0
	for _, id := range sub {
		for j < len(super) && super[j] != id {
			j++
		}
		if j == len(super) {
			return false
		}
		j++
	}
	return true
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

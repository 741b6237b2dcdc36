package core

import (
	"slices"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// ReferenceBroadMatch is the pre-columnar broad-match path: subset
// enumeration deduping visited nodes by linear scan, and an
// array-of-structs walk over each candidate node's records, copied out,
// with a per-record string subset check, charging every examined record
// its full size per Equation (2). It is the differential and fuzzing
// oracle the columnar scan is validated against, which is why it lives in
// a test file: the library does not link it.
func (ix *Index) ReferenceBroadMatch(queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	q := PrepareQuery(nil, queryWords, ix.DocFreqs(), ix.opts.MaxQueryWords)
	if len(q) == 0 {
		if counters != nil {
			counters.Queries++
		}
		return nil
	}
	k := ix.opts.MaxWords
	if k > len(q) {
		k = len(q)
	}
	var dst []*corpus.Ad
	for _, v := range ix.refEnumSubsets(q, 0, fnvOffset64, 0, k, counters, nil) {
		nd := ix.nodes[v-1]
		records := ix.appendAds(nil, nd.off, nd.off+nd.n)
		for i := range records {
			rec := &records[i]
			if len(rec.Words) > len(q) {
				break
			}
			if counters != nil {
				counters.PhrasesChecked++
				counters.BytesScanned += int64(rec.Size())
			}
			if textnorm.IsSubset(rec.Words, q) {
				dst = append(dst, rec)
			}
		}
	}
	slices.SortFunc(dst, func(a, b *corpus.Ad) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	if counters != nil {
		counters.Queries++
		counters.Matches += int64(len(dst))
	}
	return dst
}

// refEnumSubsets is the pre-change subset enumeration kept for
// ReferenceBroadMatch: visited-node dedup by linear scan, O(probes ×
// nodes visited) on long queries — exactly the satellite bug the
// nodeSet-based enumSubsets fixes.
func (ix *Index) refEnumSubsets(q []string, start int, h uint64, size, k int, counters *costmodel.Counters, visited []uint32) []uint32 {
	for i := start; i < len(q); i++ {
		nh := hashExtend(h, size == 0, q[i])
		if counters != nil {
			counters.HashProbes++
			counters.RandomAccesses++
			counters.BytesScanned += memHash
		}
		if v := ix.table.get(nh); v != 0 && !slices.Contains(visited, v) {
			if counters != nil {
				counters.RandomAccesses++
				counters.NodesVisited++
			}
			visited = append(visited, v)
		}
		if size+1 < k {
			visited = ix.refEnumSubsets(q, i+1, nh, size+1, k, counters, visited)
		}
	}
	return visited
}

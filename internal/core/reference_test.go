package core

import (
	"slices"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// ReferenceBroadMatch is the pre-columnar broad-match path, retained
// verbatim: subset enumeration deduping visited nodes by linear scan, and
// an array-of-structs walk over each candidate node's records with a
// per-record string subset check, charging every examined record its full
// size per Equation (2). It is the differential and fuzzing oracle the
// columnar scan is validated against, which is why it lives in a test
// file: the library does not link it.
func (ix *Index) ReferenceBroadMatch(queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	q, _ := ix.prepareQueryCut(nil, queryWords)
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
	for _, n := range ix.refEnumSubsets(q, 0, fnvOffset64, 0, k, counters, nil) {
		for i := range n.records {
			rec := &n.records[i]
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
	slices.SortFunc(dst, byID)
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
func (ix *Index) refEnumSubsets(q []string, start int, h uint64, size, k int, counters *costmodel.Counters, visited []*node) []*node {
	for i := start; i < len(q); i++ {
		nh := hashExtend(h, size == 0, q[i])
		if counters != nil {
			counters.HashProbes++
			counters.RandomAccesses++
			counters.BytesScanned += int64(ix.opts.MemHash)
		}
		if n := ix.table.get(nh); n != nil {
			dup := false
			for _, vn := range visited {
				if vn == n {
					dup = true
					break
				}
			}
			if !dup {
				if counters != nil {
					counters.RandomAccesses++
					counters.NodesVisited++
				}
				visited = append(visited, n)
			}
		}
		if size+1 < k {
			visited = ix.refEnumSubsets(q, i+1, nh, size+1, k, counters, visited)
		}
	}
	return visited
}

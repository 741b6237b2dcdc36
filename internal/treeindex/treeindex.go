// Package treeindex implements the tree-structured lookup table sketched
// in Section III-B of the paper: the same re-mapping scheme over an
// associative *tree* instead of a hash table. Locators (canonical word
// sets) become paths in a trie ordered by the sets' sorted words; each
// trie node holding a locator carries a data node.
//
// The trie changes the query-cost profile: instead of probing H for every
// subset of the query (min(2^|Q|-1, Σ C(|Q|,i)) probes, hits or not),
// traversal descends only into *existing* prefixes, so the work is
// bounded by the number of indexed subset-paths actually present. For
// long queries over sparse corpora this prunes almost everything; the
// price is pointer-chasing depth (one random access per trie level) on
// the paths that do exist — the trade-off the paper alludes to when
// noting the scheme carries over "provided it supports variable sized
// data at the nodes".
package treeindex

import (
	"slices"
	"sort"

	"adindex/internal/core"
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

// Index is the trie-based broad-match index, a read-only view of the core
// index it was built from.
type Index struct {
	root          *trieNode
	df            map[string]int
	maxQueryWords int
	numAds        int
}

type trieNode struct {
	// word is the edge label leading to this node (empty at the root).
	word string
	// children are ordered by word, enabling merge-style descent against
	// the sorted query.
	children []*trieNode
	// records holds the ads mapped to the locator ending here, in core's
	// node order (word count first, for early termination).
	records []corpus.Ad
	bytes   int
}

// New reads a tree index off a built core index: each word set's locator
// (base.Locator) becomes a trie path, and the node at its end holds the
// set's records as base's data node holds them. Queries are prepared with
// base's vocabulary and MaxQueryWords, so the tree answers as base does.
// The tree copies the records and the word statistics it reads.
func New(base *core.Index) *Index {
	ix := &Index{
		root:          &trieNode{},
		df:            base.DocFreqs(),
		maxQueryWords: base.Options().MaxQueryWords,
		numAds:        base.NumAds(),
	}
	base.Nodes(func(_ uint64, records []corpus.Ad) {
		// A node holds one locator's sets, or more than one only where
		// locators collide under WordHash: each run of records with one
		// locator goes to that locator's trie node.
		for lo := 0; lo < len(records); {
			loc := base.Locator(records[lo].Words)
			hi := lo + 1
			for hi < len(records) && slices.Equal(base.Locator(records[hi].Words), loc) {
				hi++
			}
			n := ix.root
			for _, w := range loc {
				n = n.child(w)
			}
			n.records = append(n.records, records[lo:hi]...)
			for i := lo; i < hi; i++ {
				n.bytes += records[i].Size()
			}
			lo = hi
		}
	})
	return ix
}

// NumAds returns the number of indexed ads.
func (ix *Index) NumAds() int { return ix.numAds }

// child returns the child labelled w, creating it if absent.
func (n *trieNode) child(w string) *trieNode {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].word >= w })
	if i < len(n.children) && n.children[i].word == w {
		return n.children[i]
	}
	c := &trieNode{word: w}
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

// BroadMatch returns all ads broad-matching the canonical query word set,
// ordered by ID. Traversal descends only into trie paths that exist:
// at each node, the sorted children are merged against the remaining
// query words.
func (ix *Index) BroadMatch(queryWords []string, counters *costmodel.Counters) []*corpus.Ad {
	q := core.PrepareQuery(nil, queryWords, ix.df, ix.maxQueryWords)
	if counters != nil {
		counters.Queries++
	}
	if len(q) == 0 {
		return nil
	}
	var matches []*corpus.Ad
	matches = ix.walk(ix.root, q, 0, counters, matches)
	slices.SortFunc(matches, byID)
	if counters != nil {
		counters.Matches += int64(len(matches))
	}
	return matches
}

// BroadMatchText is BroadMatch on raw query text.
func (ix *Index) BroadMatchText(query string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.BroadMatch(textnorm.WordSet(query), counters)
}

// walk visits every trie path labelled by a subset of q (q sorted).
// Children are matched against q[start:] (paths ascend in sorted order),
// but record checks use the FULL query: a re-mapped record's word set may
// contain words that sort before its locator path.
func (ix *Index) walk(n *trieNode, q []string, start int, counters *costmodel.Counters, matches []*corpus.Ad) []*corpus.Ad {
	if len(n.records) > 0 {
		if counters != nil {
			counters.NodesVisited++
			counters.RandomAccesses++
		}
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
				matches = append(matches, rec)
			}
		}
	}
	// Merge children against remaining query words. Children and q are
	// both sorted; each matching child is one random access (pointer
	// chase down the tree).
	ci, qi := 0, start
	for ci < len(n.children) && qi < len(q) {
		c := n.children[ci]
		switch {
		case c.word == q[qi]:
			if counters != nil {
				counters.HashProbes++ // tree-edge traversal ≙ one probe
				counters.RandomAccesses++
			}
			matches = ix.walk(c, q, qi+1, counters, matches)
			ci++
			qi++
		case c.word < q[qi]:
			ci++
		default:
			qi++
		}
	}
	return matches
}

// Stats summarizes the trie structure.
type Stats struct {
	NumAds    int
	TrieNodes int
	DataNodes int
	MaxDepth  int
	NodeBytes int
}

// Stats computes structure statistics.
func (ix *Index) Stats() Stats {
	s := Stats{NumAds: ix.numAds}
	var rec func(n *trieNode, depth int)
	rec = func(n *trieNode, depth int) {
		s.TrieNodes++
		if len(n.records) > 0 {
			s.DataNodes++
			s.NodeBytes += n.bytes
		}
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(ix.root, 0)
	return s
}

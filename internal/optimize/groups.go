// Package optimize computes advertisement-to-node mappings that minimize
// the expected workload cost under the Section IV-A memory model. It
// implements the Section V formulation: the optimal mapping is a
// minimum-weight set cover over candidate data nodes, approximated by the
// greedy algorithm (whose factor is H_k' for nodes of at most k' distinct
// word sets, Section V-B) with withdrawal-style refinement.
//
// Elements of the cover are *groups*: the distinct word sets of the
// corpus. All ads sharing a word set move together (mapping condition IV).
// Candidate node locators are the word sets of existing groups (condition
// III), except for the fallback locators that Section V-A allows inserting
// when a long phrase has no short sub-phrase in the corpus.
package optimize

import (
	"sort"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// Group is one distinct word set of the corpus together with its workload
// access statistics.
type Group struct {
	// Words is the canonical word set shared by the group's ads.
	Words []string
	// Key is textnorm.SetKey(Words).
	Key string
	// Bytes is the total data-node payload of the group's ads
	// (phrases + metadata).
	Bytes int
	// Count is the number of ads in the group.
	Count int
	// FreqByLen[l] is the total workload frequency of queries of length l
	// whose word sets contain Words. FreqByLen is exact for query lengths
	// up to the analysis index's cutoff.
	FreqByLen []int64
}

// FreqTotal returns the total frequency of queries containing the group's
// word set (F_L in the weight derivation).
func (g *Group) FreqTotal() int64 {
	var t int64
	for _, f := range g.FreqByLen {
		t += f
	}
	return t
}

// FreqAtLeast returns the total frequency of queries containing the
// group's word set whose length is at least m. Per the Equation (2) cost
// model, a member group with m words is scanned only by such queries
// (shorter queries stop earlier in the word-count-ordered node).
func (g *Group) FreqAtLeast(m int) int64 {
	var t int64
	for l := m; l < len(g.FreqByLen); l++ {
		t += g.FreqByLen[l]
	}
	return t
}

// Groups is the grouped view of a corpus plus the subset relation needed
// by the optimizer.
type Groups struct {
	All []Group
	// ByKey maps set keys to indexes in All.
	ByKey map[string]int
	// Ancestors[g] lists indexes of groups whose word sets are subsets of
	// group g's word set (including g itself). Group g may be re-mapped
	// to exactly these locators.
	Ancestors [][]int
	// MaxQueryLen is the longest query length observed in the workload.
	MaxQueryLen int
}

// BuildGroups groups ads by distinct word set, computes exact per-group
// query-access histograms from the workload, and derives the subset
// (ancestor) relation. It reuses a broad-match index internally: the
// queries "which groups does Q reach" and "which groups are subsets of g"
// are both broad-match lookups.
func BuildGroups(ads []corpus.Ad, wl *workload.Workload) *Groups {
	gs := &Groups{ByKey: make(map[string]int)}
	for i := range ads {
		if len(ads[i].Words) == 0 {
			// A phrase of punctuation: no query retrieves it and there is
			// no locator to choose for it (core rejects the empty one).
			continue
		}
		key := ads[i].SetKey()
		idx, ok := gs.ByKey[key]
		if !ok {
			idx = len(gs.All)
			gs.ByKey[key] = idx
			gs.All = append(gs.All, Group{Words: ads[i].Words, Key: key})
		}
		gs.All[idx].Bytes += ads[i].Size()
		gs.All[idx].Count++
	}

	// Representative index: one pseudo-ad per group, ID = group index + 1.
	reps := make([]corpus.Ad, len(gs.All))
	for i := range gs.All {
		reps[i] = corpus.Ad{ID: uint64(i + 1), Phrase: joinWords(gs.All[i].Words), Words: gs.All[i].Words}
	}
	// A generous query cutoff keeps the histograms exact for realistic
	// query lengths.
	ix := core.New(reps, core.Options{MaxWords: 10, MaxQueryWords: 24})

	if wl != nil {
		for qi := range wl.Queries {
			q := &wl.Queries[qi]
			l := len(q.Words)
			if l > gs.MaxQueryLen {
				gs.MaxQueryLen = l
			}
			for _, rep := range ix.BroadMatch(q.Words, nil) {
				g := &gs.All[rep.ID-1]
				for len(g.FreqByLen) <= l {
					g.FreqByLen = append(g.FreqByLen, 0)
				}
				g.FreqByLen[l] += int64(q.Freq)
			}
		}
	}

	// Ancestor relation: subsets of each group's word set present as
	// groups == broad-match of the group's own words.
	gs.Ancestors = make([][]int, len(gs.All))
	for i := range gs.All {
		matches := ix.BroadMatch(gs.All[i].Words, nil)
		anc := make([]int, 0, len(matches))
		for _, rep := range matches {
			anc = append(anc, int(rep.ID-1))
		}
		sort.Ints(anc)
		gs.Ancestors[i] = anc
	}
	return gs
}

// Descendants inverts the ancestor relation: Descendants()[L] lists the
// groups whose word sets are supersets of group L's set (including L) —
// the groups that may be stored at locator L.
func (gs *Groups) Descendants() [][]int {
	desc := make([][]int, len(gs.All))
	for g, ancs := range gs.Ancestors {
		for _, l := range ancs {
			desc[l] = append(desc[l], g)
		}
	}
	return desc
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// fallbackLocator picks a deterministic locator of at most maxWords words
// for a group with no usable existing ancestor: its lexicographically
// first maxWords words. Any subset works for correctness; Section V-A's
// "such additional node-locators can be inserted easily" corresponds to
// this.
func fallbackLocator(words []string, maxWords int) []string {
	if len(words) <= maxWords {
		return words
	}
	return textnorm.CanonicalSet(words[:maxWords])
}

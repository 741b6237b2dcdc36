package adindex

import (
	"sort"
	"sync"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
)

// MatchType classifies how a rewritten broad-match result reached the
// query: MatchExact (the unmodified query), MatchSynonym (a query word
// replaced by a synonym-class member), or MatchFuzzy (a query word
// replaced by a vocabulary word within its edit-distance bound).
type MatchType = rewrite.MatchType

// Match type values.
const (
	MatchExact   = rewrite.Exact
	MatchSynonym = rewrite.Synonym
	MatchFuzzy   = rewrite.Fuzzy
)

// MatchInfo describes how one rewritten result matched.
type MatchInfo = rewrite.MatchInfo

// Match is one approximate broad-match result: the ad plus how it was
// reached (see Result.Matches). Ads reachable through several variants
// carry the first (best-penalty) one.
type Match struct {
	Ad
	Info MatchInfo
}

// RewriteOptions enables approximate broad match (Options.Rewrite).
type RewriteOptions struct {
	// Synonyms is the synonym-class table; nil enables fuzzy (spelling)
	// rewrites only.
	Synonyms *rewrite.Classes
	// MaxVariants caps rewrite variants planned per query
	// (0 = rewrite.DefaultMaxVariants, negative = unbounded).
	MaxVariants int
	// MaxProbes caps index probes per query, the exact probe included
	// (0 = rewrite.DefaultMaxProbes, negative = unbounded).
	MaxProbes int
}

func (o Options) planner() *rewrite.Planner {
	if o.Rewrite == nil {
		return nil
	}
	return &rewrite.Planner{
		Classes: o.Rewrite.Synonyms,
		Budget: rewrite.Budget{
			MaxVariants: o.Rewrite.MaxVariants,
			MaxProbes:   o.Rewrite.MaxProbes,
		},
	}
}

// RewriteEnabled reports whether the index was built with
// Options.Rewrite.
func (ix *Index) RewriteEnabled() bool { return ix.rewriter != nil }

// RewriteStats reports the work one rewritten query cost.
type RewriteStats struct {
	// Variants is the number of alternative word sets planned.
	Variants int
	// Probes is the number of index probes spent (exact probe included).
	Probes int
	// Clipped reports that a budget (MaxVariants or MaxProbes) truncated
	// the expansion.
	Clipped bool
	// FuzzyHits / SynonymHits count results contributed by fuzzy and
	// synonym variants (beyond what the exact query already matched).
	FuzzyHits, SynonymHits int
}

// baseVocab lazily builds the rewrite trie over one base core.Index's
// word universe. It is attached to snapshots by publish and shared by
// every snapshot on the same base, so the trie is built at most once per
// fold/rebuild — and only if a rewritten query actually runs.
type baseVocab struct {
	base *core.Index
	once sync.Once
	t    *rewrite.Trie
}

func (b *baseVocab) trie() *rewrite.Trie {
	b.once.Do(func() { b.t = rewrite.NewTrie(b.base.VocabWords()) })
	return b.t
}

// vocabulary returns the snapshot's live word universe: the base trie
// adjusted for the mutation overlay. Delta ads add document frequency;
// tombstones remove it; a base word whose net frequency hits zero is
// banned, and a delta-only word becomes an extra. Computed once per
// snapshot (the overlay is immutable after publication) and only when a
// rewritten query runs.
func (s *snapshot) vocabulary() *rewrite.Vocabulary {
	s.vocabOnce.Do(func() {
		var adj map[string]int
		bump := func(w string, by int) {
			if adj == nil {
				adj = make(map[string]int)
			}
			adj[w] += by
		}
		for i := range s.delta {
			for _, w := range s.delta[i].Words {
				bump(w, 1)
			}
		}
		for k, n := range s.tombs {
			for _, w := range textnorm.SplitKey(k.key) {
				bump(w, -n)
			}
		}
		var banned map[string]bool
		var extra []string
		for w, n := range adj {
			df := s.base.WordDF(w)
			switch {
			case df > 0 && df+n <= 0:
				if banned == nil {
					banned = make(map[string]bool)
				}
				banned[w] = true
			case df == 0 && n > 0:
				extra = append(extra, w)
			}
		}
		sort.Strings(extra)
		s.vocab = rewrite.NewVocabulary(s.bv.trie(), banned, extra)
	})
	return s.vocab
}

// matchRewrite answers sc.words with approximate broad match: the exact
// canonical word set is probed first, then the planner's rewrite variants
// in deterministic plan order until the probe limit or sc.budget (which
// every probe charges) runs out. It leaves the distinct matching records
// in sc.matches, ordered by ID, and returns their infos in the same
// order; a record reachable through several variants is tagged with the
// first variant that found it (plan order is penalty order, so that is
// its best rewrite). Without a planner only the exact probe runs and
// every result is MatchExact.
func (v View) matchRewrite(sc *queryScratch, counters *Counters) ([]MatchInfo, RewriteStats) {
	var stats RewriteStats
	var variants []rewrite.Variant
	probeLimit := rewrite.Budget{}.ProbeLimit()
	if v.rw != nil && len(sc.words) > 0 {
		var ps rewrite.PlanStats
		variants, ps = v.rw.Plan(sc.words, v.s.vocabulary())
		stats.Variants = len(variants)
		stats.Clipped = ps.Clipped
		probeLimit = v.rw.Budget.ProbeLimit()
	}

	type hit struct {
		rec  *corpus.Ad
		info MatchInfo
	}
	var hits []hit
	var seen map[*corpus.Ad]bool
	probe := func(words []string, info MatchInfo) {
		stats.Probes++
		sc.matches = v.s.appendMatch(sc.matches[:0], Broad, nil, words, counters, &sc.core, &sc.budget)
		for _, m := range sc.matches {
			if seen[m] {
				continue
			}
			if seen == nil {
				seen = make(map[*corpus.Ad]bool)
			}
			seen[m] = true
			hits = append(hits, hit{rec: m, info: info})
			switch info.Type {
			case MatchFuzzy:
				stats.FuzzyHits++
			case MatchSynonym:
				stats.SynonymHits++
			}
		}
	}
	probe(sc.words, MatchInfo{Type: MatchExact})
	for _, vr := range variants {
		if sc.budget.Exhausted() {
			break
		}
		if stats.Probes >= probeLimit {
			stats.Clipped = true
			break
		}
		probe(vr.Words, vr.Info)
	}

	// Restore the global ID order broad match guarantees; insertion order
	// breaks ties so equal-ID duplicates keep their plan-order infos.
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].rec.ID < hits[j].rec.ID })
	sc.matches = sc.matches[:0]
	infos := make([]MatchInfo, 0, len(hits))
	for _, h := range hits {
		sc.matches = append(sc.matches, h.rec)
		infos = append(infos, h.info)
	}
	return infos, stats
}

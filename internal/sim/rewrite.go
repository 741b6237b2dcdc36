package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
)

// simClasses builds the deterministic synonym table shared by the
// generator, the index targets, and the oracle: pairs drawn from the
// run's vocabulary at a fixed stride, so a synonym swap in a generated
// query can always reach back to indexed phrases.
func simClasses(vocab []string) *rewrite.Classes {
	var classes [][]string
	for i := 0; i+1 < len(vocab) && len(classes) < 8; i += 5 {
		classes = append(classes, []string{vocab[i], vocab[i+1]})
	}
	c, err := rewrite.NewClasses(classes)
	if err != nil {
		panic("sim: simClasses: " + err.Error())
	}
	return c
}

// rewritePlanner is the planner every rewrite-enabled target runs with
// (default budget), rebuilt deterministically from the config.
func rewritePlanner(cfg Config) *rewrite.Planner {
	if !cfg.Rewrite {
		return nil
	}
	return &rewrite.Planner{Classes: simClasses(corpus.MakeVocabulary(cfg.Gen.Vocab))}
}

// perturbQuery damages one query word — a synonym-class swap half the
// time (when a class member is present), otherwise a one-letter typo —
// so the rewrite path has real repair work to do.
func perturbQuery(rng *rand.Rand, query string, classes *rewrite.Classes) string {
	words := strings.Fields(query)
	if len(words) == 0 {
		return query
	}
	if rng.Intn(2) == 0 {
		var idxs []int
		for i, w := range words {
			if len(classes.Alternates(w)) > 0 {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			i := idxs[rng.Intn(len(idxs))]
			alts := classes.Alternates(words[i])
			words[i] = alts[rng.Intn(len(alts))]
			return strings.Join(words, " ")
		}
	}
	// Typo: rotate one letter. Vocabulary words are ≥4 runes, so the
	// fuzzy edit-distance bound is always ≥1 and a variant can reach
	// back to the clean word.
	i := rng.Intn(len(words))
	r := []rune(words[i])
	if len(r) >= 3 {
		j := rng.Intn(len(r))
		if r[j] >= 'a' && r[j] <= 'z' {
			r[j] = 'a' + (r[j]-'a'+1+rune(rng.Intn(24)))%26
			words[i] = string(r)
		}
	}
	return strings.Join(words, " ")
}

// distinctWords returns the sorted distinct words of the live ads — the
// oracle's naive vocabulary source (rewrite.WordList runs plain DP per
// word, independent of the index's trie walk).
func (m *model) distinctWords() rewrite.WordList {
	set := make(map[string]bool)
	for i := range m.ads {
		for _, w := range m.ads[i].Words {
			set[w] = true
		}
	}
	words := make([]string, 0, len(set))
	for w := range set {
		words = append(words, w)
	}
	sort.Strings(words)
	return rewrite.WordList(words)
}

// rewriteMatch mirrors a Query.Rewrite Match against the flat model:
// exact probe first, then the planner's variants in plan order under the
// probe budget, each probe a linear subset scan; first probe to reach a
// record assigns its match info. Results come back ID-ordered.
func (m *model) rewriteMatch(query string, p *rewrite.Planner) ([]corpus.Ad, []rewrite.MatchInfo) {
	q := textnorm.WordSet(query)
	var variants []rewrite.Variant
	probeLimit := rewrite.Budget{}.ProbeLimit()
	if p != nil && len(q) > 0 {
		variants, _ = p.Plan(q, m.distinctWords())
		probeLimit = p.Budget.ProbeLimit()
	}

	type hit struct {
		idx  int
		info rewrite.MatchInfo
	}
	var hits []hit
	seen := make(map[int]bool)
	probes := 0
	probe := func(words []string, info rewrite.MatchInfo) {
		probes++
		for idx := range m.ads {
			if !seen[idx] && textnorm.IsSubset(m.ads[idx].Words, words) {
				seen[idx] = true
				hits = append(hits, hit{idx: idx, info: info})
			}
		}
	}
	probe(q, rewrite.MatchInfo{Type: rewrite.Exact})
	for _, v := range variants {
		if probes >= probeLimit {
			break
		}
		probe(v.Words, v.Info)
	}
	sort.SliceStable(hits, func(a, b int) bool { return m.ads[hits[a].idx].ID < m.ads[hits[b].idx].ID })

	ads := make([]corpus.Ad, len(hits))
	infos := make([]rewrite.MatchInfo, len(hits))
	for i, h := range hits {
		ads[i] = m.ads[h.idx]
		infos[i] = h.info
	}
	return ads, infos
}

// rewriteAuction independently re-implements the default SelectMatches
// semantics over the oracle's rewrite results: drop exclusion-keyword
// fires, rank by discounted bid descending with ID then penalty as the
// tiebreaks.
func (m *model) rewriteAuction(query string, ads []corpus.Ad, infos []rewrite.MatchInfo) ([]corpus.Ad, []rewrite.MatchInfo) {
	q := textnorm.WordSet(query)
	type pair struct {
		ad   corpus.Ad
		info rewrite.MatchInfo
	}
	var out []pair
	for i := range ads {
		if !exclusionFires(&ads[i], q) {
			out = append(out, pair{ad: ads[i], info: infos[i]})
		}
	}
	disc := func(info rewrite.MatchInfo) int64 {
		switch info.Type {
		case rewrite.Synonym:
			return 90
		case rewrite.Fuzzy:
			if info.Distance <= 1 {
				return 75
			}
			return 50
		}
		return 100
	}
	sort.SliceStable(out, func(a, b int) bool {
		sa := out[a].ad.Meta.BidMicros * disc(out[a].info) / 100
		sb := out[b].ad.Meta.BidMicros * disc(out[b].info) / 100
		if sa != sb {
			return sa > sb
		}
		if out[a].ad.ID != out[b].ad.ID {
			return out[a].ad.ID < out[b].ad.ID
		}
		return out[a].info.Penalty() < out[b].info.Penalty()
	})
	selAds := make([]corpus.Ad, len(out))
	selInfos := make([]rewrite.MatchInfo, len(out))
	for i := range out {
		selAds[i] = out[i].ad
		selInfos[i] = out[i].info
	}
	return selAds, selInfos
}

// checkRewrite runs one rewrite query through Match on the single-node
// targets and SelectMatches on the plain results, comparing ads and match
// infos against the oracle's independent rewrite model. Under
// Config.Budget the query runs once more with every probe charged to that
// budget: a truncated answer must be an ID-ordered sub-multiset of the
// model's full rewrite answer, a non-truncated one must equal it.
func (r *runner) checkRewrite(i int, q string) *Failure {
	fail := func(target, format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: target, Detail: fmt.Sprintf(format, args...)}
	}
	wantAds, wantInfos := r.oracle.rewriteMatch(q, r.rw)

	query := adindex.Query{Text: q, Rewrite: true}
	got := r.plain.Match(nil, query).Matches()
	if d := diffMatches(got, wantAds, wantInfos); d != "" {
		return fail("plain", "rewrite query %q: %s", q, d)
	}
	r.checks++

	// Discounted-auction differential: default-Selection SelectMatches
	// over the real matches vs. the oracle's re-ranking pass.
	sel := adindex.SelectMatches(q, got, adindex.Selection{})
	selAds, selInfos := r.oracle.rewriteAuction(q, wantAds, wantInfos)
	if d := diffMatches(sel, selAds, selInfos); d != "" {
		return fail("auction", "rewrite query %q: %s", q, d)
	}
	r.checks++

	if r.cfg.Budget > 0 {
		query.Budget.MaxCost = r.cfg.Budget
		res := r.plain.Match(nil, query)
		if res.Truncated {
			r.truncated++
			if d := subsetDiffAds(res.Ads, wantAds); d != "" {
				return fail("budget", "truncated rewrite query %q (budget %d, spent %d): %s", q, r.cfg.Budget, res.CostSpent, d)
			}
		} else if d := diffMatches(res.Matches(), wantAds, wantInfos); d != "" {
			return fail("budget", "rewrite query %q (budget %d, spent %d): %s", q, r.cfg.Budget, res.CostSpent, d)
		}
		r.checks++
	}

	if r.dur != nil {
		dgot := r.dur.ix.Match(nil, adindex.Query{Text: q, Rewrite: true}).Matches()
		if d := diffMatches(dgot, wantAds, wantInfos); d != "" {
			return fail("durable", "rewrite query %q: %s", q, d)
		}
		r.checks++
	}
	return nil
}

// diffMatches compares rewrite results (ads + match infos) against the
// oracle's, returning "" when equal or the first divergence.
func diffMatches(got []adindex.Match, wantAds []corpus.Ad, wantInfos []rewrite.MatchInfo) string {
	gotAds := make([]corpus.Ad, len(got))
	for i := range got {
		gotAds[i] = got[i].Ad
	}
	if d := diffAds(gotAds, wantAds); d != "" {
		return d
	}
	for i := range got {
		if got[i].Info != wantInfos[i] {
			return fmt.Sprintf("match %d (ad %d) info = %+v, oracle says %+v", i, got[i].ID, got[i].Info, wantInfos[i])
		}
	}
	return ""
}

package adindex

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"adindex/internal/corpus"
	"adindex/internal/rewrite"
	"adindex/internal/workload"
)

func rewriteTestAds() []Ad {
	return []Ad{
		NewAd(1, "running shoes", Meta{BidMicros: 500}),
		NewAd(2, "cheap sneakers", Meta{BidMicros: 400}),
		NewAd(3, "running socks", Meta{BidMicros: 300}),
		NewAd(4, "leather boots", Meta{BidMicros: 200}),
	}
}

func mustSynonyms(t *testing.T, raw [][]string) *rewrite.Classes {
	t.Helper()
	c, err := rewrite.NewClasses(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rewriteMatch runs one rewritten broad match and pairs ads with infos.
func rewriteMatch(ix *Index, query string) ([]Match, RewriteStats) {
	res := ix.Match(nil, Query{Text: query, Rewrite: true})
	return res.Matches(), res.Rewrite
}

func matchIDs(ms []Match) []uint64 {
	out := make([]uint64, len(ms))
	for i := range ms {
		out[i] = ms[i].ID
	}
	return out
}

func TestMatchRewriteFuzzy(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{}})

	// One-letter typo in "running": the rewrite restores it and returns
	// exactly the ads the clean query matches, flagged fuzzy distance 1.
	clean := ix.BroadMatch("running shoes")
	got, stats := rewriteMatch(ix, "runing shoes")
	if want := idsOf(clean); !reflect.DeepEqual(matchIDs(got), want) {
		t.Fatalf("typo query IDs = %v, clean query IDs = %v", matchIDs(got), want)
	}
	for _, m := range got {
		if m.Info.Type != MatchFuzzy || m.Info.Distance != 1 {
			t.Errorf("ad %d: info = %+v, want fuzzy distance 1", m.ID, m.Info)
		}
	}
	if stats.Probes < 2 || stats.Variants == 0 || stats.FuzzyHits != len(got) {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMatchRewriteExactKeepsFlag(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{}})
	got, _ := rewriteMatch(ix, "running shoes socks")
	if len(got) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range got {
		if m.Info.Type != MatchExact {
			t.Errorf("ad %d: info = %+v, want exact", m.ID, m.Info)
		}
	}
}

func TestMatchRewriteSynonym(t *testing.T) {
	syn := mustSynonyms(t, [][]string{{"sneakers", "shoes"}})
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{Synonyms: syn}})
	got, stats := rewriteMatch(ix, "cheap shoes")
	if !reflect.DeepEqual(matchIDs(got), []uint64{2}) {
		t.Fatalf("IDs = %v, want [2]", matchIDs(got))
	}
	if got[0].Info.Type != MatchSynonym {
		t.Errorf("info = %+v, want synonym", got[0].Info)
	}
	if stats.SynonymHits != 1 {
		t.Errorf("stats = %+v, want one synonym hit", stats)
	}
}

func TestMatchRewriteDisabled(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{})
	if ix.RewriteEnabled() {
		t.Fatal("RewriteEnabled on plain index")
	}
	got, stats := rewriteMatch(ix, "runing shoes")
	if len(got) != 0 {
		t.Fatalf("disabled rewrite matched typo query: %v", matchIDs(got))
	}
	if stats.Probes != 1 || stats.Variants != 0 {
		t.Errorf("stats = %+v, want exact probe only", stats)
	}
	exact, _ := rewriteMatch(ix, "running shoes")
	if want := idsOf(ix.BroadMatch("running shoes")); !reflect.DeepEqual(matchIDs(exact), want) {
		t.Fatalf("disabled rewrite = %v, broad match = %v", matchIDs(exact), want)
	}
}

// Enabling rewrite must not perturb the exact read path: every classic
// query method returns byte-identical results with and without it.
func TestRewriteOffExactPathUnchanged(t *testing.T) {
	ads := GenerateAds(300, 42)
	plain := Build(ads, Options{})
	rw := Build(ads, Options{Rewrite: &RewriteOptions{}})
	queries := []string{"used books", "running shoes sale", ads[0].Phrase, ads[17].Phrase, ads[200].Phrase}
	for _, q := range queries {
		if a, b := plain.BroadMatch(q), rw.BroadMatch(q); !reflect.DeepEqual(a, b) {
			t.Fatalf("BroadMatch(%q) differs with rewrite enabled", q)
		}
		if a, b := plain.ExactMatch(q), rw.ExactMatch(q); !reflect.DeepEqual(a, b) {
			t.Fatalf("ExactMatch(%q) differs with rewrite enabled", q)
		}
		if a, b := plain.PhraseMatch(q), rw.PhraseMatch(q); !reflect.DeepEqual(a, b) {
			t.Fatalf("PhraseMatch(%q) differs with rewrite enabled", q)
		}
	}
}

// The vocabulary must track mutations in lockstep with the published
// snapshot: a word is fuzzy-reachable exactly while some live ad uses it.
func TestRewriteVocabularyLockstep(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{}})

	// "quantum" is not in the vocabulary yet: its typo finds nothing.
	if got, _ := rewriteMatch(ix, "quantun widgets"); len(got) != 0 {
		t.Fatalf("unexpected matches before insert: %v", matchIDs(got))
	}
	ix.Insert(NewAd(50, "quantum widgets", Meta{BidMicros: 100}))
	got, _ := rewriteMatch(ix, "quantun widgets")
	if !reflect.DeepEqual(matchIDs(got), []uint64{50}) {
		t.Fatalf("after insert: IDs = %v, want [50]", matchIDs(got))
	}
	if got[0].Info.Type != MatchFuzzy {
		t.Fatalf("after insert: info = %+v, want fuzzy", got[0].Info)
	}
	if !ix.Delete(50, "quantum widgets") {
		t.Fatal("delete failed")
	}
	if got, _ := rewriteMatch(ix, "quantun widgets"); len(got) != 0 {
		t.Fatalf("matches after delete: %v", matchIDs(got))
	}

	// Same dance against the base (tombstone side): delete a seed ad and
	// its words must stop attracting fuzzy traffic.
	if got, _ := rewriteMatch(ix, "leather bools"); len(got) == 0 {
		t.Fatal("base word not fuzzy-reachable")
	}
	if !ix.Delete(4, "leather boots") {
		t.Fatal("delete of base ad failed")
	}
	if got, _ := rewriteMatch(ix, "leather bools"); len(got) != 0 {
		t.Fatalf("matches after base delete: %v", matchIDs(got))
	}
}

// Folding the overlay into a fresh base (here via MaxDeltaAds=negative,
// which folds on every mutation) must keep the vocabulary identical.
func TestRewriteVocabularyAcrossFolds(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{}, MaxDeltaAds: -1})
	ix.Insert(NewAd(50, "quantum widgets", Meta{BidMicros: 100}))
	got, _ := rewriteMatch(ix, "quantun widgets")
	if !reflect.DeepEqual(matchIDs(got), []uint64{50}) {
		t.Fatalf("after folded insert: IDs = %v, want [50]", matchIDs(got))
	}
	ix.Delete(50, "quantum widgets")
	if got, _ := rewriteMatch(ix, "quantun widgets"); len(got) != 0 {
		t.Fatalf("matches after folded delete: %v", matchIDs(got))
	}
}

func TestMatchRewriteProbeBudget(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{MaxProbes: 1}})
	got, stats := rewriteMatch(ix, "runing shoes")
	if len(got) != 0 {
		t.Fatalf("probe budget 1 should stop at the exact probe, got %v", matchIDs(got))
	}
	if stats.Probes != 1 || !stats.Clipped {
		t.Errorf("stats = %+v, want 1 probe and clipped", stats)
	}
}

func TestSelectMatchesDiscounts(t *testing.T) {
	q := "running shoes"
	matches := []Match{
		{Ad: NewAd(1, "running shoes", Meta{BidMicros: 100}), Info: MatchInfo{Type: MatchFuzzy, Distance: 1}},
		{Ad: NewAd(2, "running shoes", Meta{BidMicros: 80}), Info: MatchInfo{Type: MatchExact}},
		{Ad: NewAd(3, "running shoes", Meta{BidMicros: 90}), Info: MatchInfo{Type: MatchSynonym}},
	}
	// Discounted scores: 75, 80, 81 — the exact 80-bid beats the fuzzy
	// 100-bid, the synonym 90-bid beats both.
	got := SelectMatches(q, matches, Selection{})
	if want := []uint64{3, 2, 1}; !reflect.DeepEqual(matchIDs(got), want) {
		t.Fatalf("order = %v, want %v", matchIDs(got), want)
	}

	// Exclusions and floors still apply.
	excl := []Match{
		{Ad: NewAd(1, "running shoes", Meta{BidMicros: 100, Exclusions: []string{"cheap"}}), Info: MatchInfo{Type: MatchExact}},
		{Ad: NewAd(2, "running shoes", Meta{BidMicros: 10}), Info: MatchInfo{Type: MatchExact}},
	}
	got = SelectMatches("cheap running shoes", excl, Selection{MinBidMicros: 20})
	if len(got) != 0 {
		t.Fatalf("filters ignored: %v", matchIDs(got))
	}
}

// Metamorphic property over a generated corpus: take a query that is an
// ad's own word set, inject one substitution typo into a word, and the
// rewritten results must (a) contain every ad the clean query broad-
// matches, and (b) rank a typo-reached ad no higher than an equally
// bidding exact match would.
func TestRewriteMetamorphicTypo(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 97})
	// Unbounded budget so the restoring variant is never clipped away.
	ix := Build(c.Ads, Options{Rewrite: &RewriteOptions{MaxVariants: -1, MaxProbes: -1}})
	rng := rand.New(rand.NewSource(98))
	tried := 0
	for tried < 25 {
		ad := &c.Ads[rng.Intn(len(c.Ads))]
		if len(ad.Words) < 2 {
			continue
		}
		wi := rng.Intn(len(ad.Words))
		w := ad.Words[wi]
		if utf8.RuneCountInString(w) < 3 {
			continue
		}
		typo := substituteLetter(w, rng)
		if typo == w || containsStr(ad.Words, typo) {
			continue
		}
		tried++
		clean := strings.Join(ad.Words, " ")
		dirty := strings.Join(replaceWord(ad.Words, wi, typo), " ")

		want := idsOf(ix.BroadMatch(clean))
		got, _ := rewriteMatch(ix, dirty)
		gotSet := make(map[uint64]bool, len(got))
		for _, m := range got {
			gotSet[m.ID] = true
		}
		for _, id := range want {
			if !gotSet[id] {
				t.Fatalf("typo %q -> %q: rewrite of %q lost ad %d from clean query %q",
					w, typo, dirty, id, clean)
			}
		}
		// A clean-query ad that uses w cannot match the typo query
		// verbatim, so it must be flagged as a rewrite and discounted.
		for _, m := range got {
			if containsStr(m.Words, w) && m.Info.Type == MatchExact {
				t.Fatalf("ad %d contains typo'd word %q but is flagged exact for %q", m.ID, w, dirty)
			}
			if m.Info.Type != MatchExact && RankDiscountPercent(m.Info) >= 100 {
				t.Fatalf("rewrite info %+v not discounted", m.Info)
			}
		}
	}
}

// A rewritten result set, re-ranked with SelectMatches, agrees with
// SelectAds on the subset of exact matches (discounting only reorders
// across match types, never within the exact tier).
func TestSelectMatchesExactTierAgreesWithSelectAds(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 300, Seed: 99})
	ix := Build(c.Ads, Options{Rewrite: &RewriteOptions{}})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 50, Seed: 100})
	for _, q := range wl.Queries {
		query := strings.Join(q.Words, " ")
		got, _ := rewriteMatch(ix, query)
		var exactOnly []Match
		for _, m := range got {
			if m.Info.Type == MatchExact {
				exactOnly = append(exactOnly, m)
			}
		}
		sel := SelectMatches(query, exactOnly, Selection{})
		ads := make([]Ad, len(exactOnly))
		for i := range exactOnly {
			ads[i] = exactOnly[i].Ad
		}
		want := SelectAds(query, ads, Selection{})
		if !reflect.DeepEqual(matchIDs(sel), idsOf(want)) {
			t.Fatalf("query %q: SelectMatches exact tier %v, SelectAds %v",
				query, matchIDs(sel), idsOf(want))
		}
	}
}

func substituteLetter(w string, rng *rand.Rand) string {
	runes := []rune(w)
	i := rng.Intn(len(runes))
	old := runes[i]
	runes[i] = 'a' + rune((int(old-'a')+1+rng.Intn(24))%26)
	return string(runes)
}

func replaceWord(words []string, i int, repl string) []string {
	out := append([]string(nil), words...)
	out[i] = repl
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

package adindex

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// bruteForce is the oracle of TestMatchOptionsCompose: a linear scan of
// the live corpus with the textbook predicate of each query type.
func bruteForce(ads []Ad, typ QueryType, query string) []uint64 {
	qset := textnorm.WordSet(query)
	qTokens := textnorm.Tokenize(query)
	var ids []uint64
	for i := range ads {
		ok := textnorm.IsSubset(ads[i].Words, qset)
		pTokens := textnorm.Tokenize(ads[i].Phrase)
		switch typ {
		case Exact:
			ok = slices.Equal(textnorm.FoldDuplicates(pTokens), textnorm.FoldDuplicates(qTokens))
		case Phrase:
			ok = ok && textnorm.ContainsContiguous(qTokens, pTokens)
		}
		if ok {
			ids = append(ids, ads[i].ID)
		}
	}
	return ids
}

// subMultisetInOrder reports whether got is ID-ordered and a sub-multiset
// of the ID-ordered want.
func subMultisetInOrder(got, want []uint64) bool {
	j := 0
	for i, id := range got {
		if i > 0 && id < got[i-1] {
			return false
		}
		for j < len(want) && want[j] != id {
			j++
		}
		if j == len(want) {
			return false
		}
		j++
	}
	return true
}

// TestMatchOptionsCompose runs the cross product of Query options —
// type × rewrite × budget × counters — on a clean base and on a base
// carrying a delta and tombstones, and holds every combination to the
// same contract: unbudgeted answers equal the brute-force scan and the
// wrapper methods, truncated answers are ID-ordered sub-multisets of the
// untruncated ones, and the signature accounting balances.
func TestMatchOptionsCompose(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 61})
	opts := Options{MaxDeltaAds: 512, Rewrite: &RewriteOptions{}}
	// Two bid phrases longer than MaxQueryWords, one per storage tier: the
	// subset walk cuts such a query down, the exact lookup must not.
	longBase := NewAd(800000, "a1 b2 c3 d4 e5 f6 g7 h8 i9 j10 k11 l12 m13 n14 o15", Meta{})
	longDelta := NewAd(800001, "z1 y2 x3 w4 v5 u6 t7 s8 r9 q10 p11 o12 n13 m14", Meta{})
	ads := append(slices.Clone(c.Ads), longBase)

	clean := Build(ads, opts)
	churned := Build(ads, opts)
	churned.Insert(longDelta)
	for i := 0; i < 40; i++ {
		// Fresh ads reuse live phrases (under new IDs) so the delta matches
		// the same queries the base does; every third one dies again.
		ad := NewAd(uint64(900000+i), c.Ads[i*7].Phrase, Meta{Exclusions: []string{"free"}})
		churned.Insert(ad)
		if i%3 == 0 {
			churned.Delete(ad.ID, ad.Phrase)
		}
		churned.Delete(c.Ads[i*11].ID, c.Ads[i*11].Phrase)
	}
	if s := churned.snap.Load(); len(s.delta) == 0 || len(s.tombs) == 0 {
		t.Fatalf("overlay not populated: delta=%d tombs=%d", len(s.delta), len(s.tombs))
	}

	var queries []string
	for _, q := range workload.Generate(c, workload.GenOptions{NumQueries: 60, Seed: 62}).Queries {
		queries = append(queries, strings.Join(q.Words, " "))
	}
	for _, q := range workload.GenerateAdversarial(c, workload.AdvOptions{NumQueries: 6, TopWords: 14, Seed: 63}).Queries {
		queries = append(queries, strings.Join(q.Words, " "))
	}
	for i := 0; i < 20; i++ {
		// Order-sensitive probes: a live phrase verbatim, embedded, and with
		// its words reversed.
		p := c.Ads[i*13].Phrase
		toks := textnorm.Tokenize(p)
		slices.Reverse(toks)
		queries = append(queries, p, "buy "+p+" today", strings.Join(toks, " "))
	}
	queries = append(queries, longBase.Phrase, longDelta.Phrase, "buy "+longBase.Phrase)

	budgets := []struct {
		name string
		qb   QueryBudget
	}{
		{"none", QueryBudget{}},
		{"tight", QueryBudget{MaxCost: 6}},
		{"expired", QueryBudget{Deadline: time.Unix(1, 0)}},
	}
	truncations := map[string]int{}
	for ixName, ix := range map[string]*Index{"clean": clean, "overlay": churned} {
		live := ix.Ads()
		view := ix.View()
		for _, typ := range []QueryType{Broad, Exact, Phrase} {
			for _, rw := range []bool{false, true} {
				for _, query := range queries {
					full := view.Match(nil, Query{Text: query, Type: typ, Rewrite: rw})
					fullIDs := idsOf(full.Ads)
					for _, b := range budgets {
						for _, counted := range []bool{false, true} {
							name := fmt.Sprintf("%s type=%d rewrite=%v budget=%s counted=%v %q", ixName, typ, rw, b.name, counted, query)
							q := Query{Text: query, Type: typ, Rewrite: rw, Budget: b.qb}
							var ctr Counters
							if counted {
								q.Counters = &ctr
							}
							res := view.Match(nil, q)
							ids := idsOf(res.Ads)
							switch {
							case res.Truncated:
								truncations[fmt.Sprintf("type=%d rewrite=%v budget=%s", typ, rw && typ == Broad, b.name)]++
								if b.name == "none" {
									t.Fatalf("%s: truncated without a budget", name)
								}
								if res.CostSpent <= 0 {
									t.Fatalf("%s: truncated with CostSpent=%d", name, res.CostSpent)
								}
								if !subMultisetInOrder(ids, fullIDs) {
									t.Fatalf("%s: truncated %v is not an ordered sub-multiset of %v", name, ids, fullIDs)
								}
							case !reflect.DeepEqual(res.Ads, full.Ads) || !reflect.DeepEqual(res.Infos, full.Infos):
								t.Fatalf("%s: untruncated answer %v differs from the unbudgeted one %v", name, ids, fullIDs)
							}
							if typ == Exact && (res.Truncated || res.CutoffApplied || res.CostSpent != 0) {
								t.Fatalf("%s: exact match is one lookup, yet %+v", name, res)
							}
							if rw && typ == Broad {
								if len(res.Infos) != len(res.Ads) {
									t.Fatalf("%s: %d infos for %d ads", name, len(res.Infos), len(res.Ads))
								}
							} else if res.Infos != nil {
								t.Fatalf("%s: infos on a non-rewritten answer", name)
							}
							if ctr.SignatureChecks != ctr.SignatureRejects+ctr.PhrasesChecked {
								t.Fatalf("%s: SignatureChecks %d != SignatureRejects %d + PhrasesChecked %d",
									name, ctr.SignatureChecks, ctr.SignatureRejects, ctr.PhrasesChecked)
							}
							if counted && (ctr.Queries == 0 || ctr.Matches < int64(len(res.Ads))) {
								t.Fatalf("%s: counters did not see the query: %+v for %d ads", name, ctr, len(res.Ads))
							}
						}
					}

					// The oracle, for answers the static word cutoff left whole.
					if full.CutoffApplied {
						continue
					}
					got := fullIDs
					if rw && typ == Broad {
						// Rewrites only add ads; the ones reached by the query
						// itself are exactly the plain answer.
						got = nil
						for i, info := range full.Infos {
							if info.Type == MatchExact {
								got = append(got, full.Ads[i].ID)
							}
						}
					}
					if want := bruteForce(live, typ, query); !slices.Equal(got, want) {
						t.Fatalf("%s type=%d rewrite=%v %q: Match = %v, brute force = %v", ixName, typ, rw, query, got, want)
					}
					if rw || typ != Broad {
						continue
					}
					if wrapped := ix.BroadMatch(query); !reflect.DeepEqual(wrapped, full.Ads) {
						t.Fatalf("%s %q: BroadMatch %v differs from Match %v", ixName, query, idsOf(wrapped), fullIDs)
					}
					if app := view.BroadMatchAppend(nil, query); !reflect.DeepEqual(app, full.Ads) {
						t.Fatalf("%s %q: BroadMatchAppend differs from Match", ixName, query)
					}
				}
			}
		}
	}
	t.Logf("truncations: %v", truncations)
	for _, kind := range []string{"type=0 rewrite=false", "type=0 rewrite=true", "type=2 rewrite=false"} {
		for _, b := range budgets[1:] {
			if key := kind + " budget=" + b.name; truncations[key] == 0 {
				t.Errorf("%s never truncated anything; the combination is not exercised", key)
			}
		}
	}
}

// TestExactMatchBeyondQueryCutoff: exact match looks up the query's own
// word set, so the MaxQueryWords cutoff of the subset walk does not apply
// to it: a bid phrase longer than the cutoff is found in the base and in
// the delta, whatever the budget.
func TestExactMatchBeyondQueryCutoff(t *testing.T) {
	long := "one two three four five six seven eight nine ten eleven twelve thirteen fourteen fifteen"
	ix := Build([]Ad{NewAd(1, long, Meta{}), NewAd(2, "one two", Meta{})}, Options{})
	ix.Insert(NewAd(3, long, Meta{}))
	if got := idsOf(ix.Match(nil, Query{Text: long, Type: Exact}).Ads); !slices.Equal(got, []uint64{1, 3}) {
		t.Fatalf("exact match of 15 words = %v, want [1 3]", got)
	}
	res := ix.Match(nil, Query{Text: long, Type: Exact, Budget: QueryBudget{MaxCost: 1, Deadline: time.Unix(1, 0)}})
	if got := idsOf(res.Ads); !slices.Equal(got, []uint64{1, 3}) || res.Truncated || res.CutoffApplied {
		t.Fatalf("budgeted exact = %v truncated=%v cutoff=%v, want [1 3] whole", got, res.Truncated, res.CutoffApplied)
	}
}

// TestMatchAppendsAfterDst: Match extends dst without touching what is
// already there, and Matches pairs only the appended ads with Infos.
func TestMatchAppendsAfterDst(t *testing.T) {
	ix := Build(rewriteTestAds(), Options{Rewrite: &RewriteOptions{}})
	sentinel := NewAd(99, "sentinel", Meta{})
	res := ix.Match([]Ad{sentinel}, Query{Text: "runing shoes", Rewrite: true})
	if len(res.Ads) != 2 || res.Ads[0].ID != 99 || res.Ads[1].ID != 1 {
		t.Fatalf("Ads = %v, want the sentinel then ad 1", idsOf(res.Ads))
	}
	m := res.Matches()
	if len(m) != 1 || m[0].ID != 1 || m[0].Info.Type != MatchFuzzy {
		t.Fatalf("Matches = %+v, want ad 1 reached by a fuzzy rewrite", m)
	}
}

// TestMatchAllocs is the root-package allocation contract: a warm Match
// into a reused dst costs at most one allocation per broad query (the
// string arena backing the copied ads), with or without a budget, and
// whatever the matched ads carry (exclusions are copied into the same
// arena, never tokenized); an exact or phrase query of a live phrase costs
// no more. Neither builds a set key per candidate record or tokenizes a
// phrase into a fresh slice. Sampling a repeated query allocates nothing.
// BroadMatchAppend is the same call.
func TestMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 64})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 64, Seed: 65})
	var broad, phrases []string
	for _, q := range wl.Queries {
		broad = append(broad, strings.Join(q.Words, " "))
	}
	for i := 0; i < 64; i++ {
		phrases = append(phrases, c.Ads[i*31].Phrase)
	}
	view := Build(c.Ads, Options{}).View()
	// Every ad of this corpus carries a negative keyword, and its queries
	// are long enough to match many ads each.
	ex := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 66, ExclusionProb: 1})
	exWl := workload.Generate(ex, workload.GenOptions{NumQueries: 64, Seed: 67})
	var excluding []string
	for _, q := range exWl.Queries {
		excluding = append(excluding, strings.Join(q.Words, " ")+" "+ex.Ads[len(excluding)*29].Phrase)
	}
	exView := Build(ex.Ads, Options{}).View()
	for _, tc := range []struct {
		view    View
		typ     QueryType
		queries []string
		budget  QueryBudget
		max     float64
	}{
		{view, Broad, broad, QueryBudget{}, 1},
		{view, Broad, broad, QueryBudget{MaxCost: 1 << 20, Deadline: time.Now().Add(time.Hour)}, 1},
		{view, Exact, phrases, QueryBudget{}, 1},
		{view, Phrase, phrases, QueryBudget{}, 1},
		{exView, Broad, excluding, QueryBudget{}, 1},
	} {
		dst := make([]Ad, 0, 256)
		i, matched, exclusions := 0, 0, 0
		run := func() {
			dst = tc.view.Match(dst[:0], Query{Text: tc.queries[i%len(tc.queries)], Type: tc.typ, Budget: tc.budget}).Ads
			matched += len(dst)
			for j := range dst {
				exclusions += len(dst[j].Meta.Exclusions)
			}
			i++
		}
		for range tc.queries {
			run() // warm the scratch pool, dst and the workload sample
		}
		if matched < len(tc.queries) {
			t.Fatalf("type %d: %d matches over %d queries, want every query to match", tc.typ, matched, len(tc.queries))
		}
		if tc.view == exView && exclusions < 2*len(tc.queries) {
			t.Fatalf("%d exclusions over %d queries: the case exercises nothing", exclusions, len(tc.queries))
		}
		if allocs := testing.AllocsPerRun(500, run); allocs > tc.max {
			t.Errorf("type %d budget %+v (%d matches, %d exclusions so far): warm View.Match = %.2f allocs/op, want <= %v",
				tc.typ, tc.budget, matched, exclusions, allocs, tc.max)
		}
	}
}

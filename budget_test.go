package adindex

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// TestBroadMatchBudgetUnlimited: a zero budget returns exactly the
// plain results, never flagged truncated.
func TestBroadMatchBudgetUnlimited(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 21})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 22})
	ix := Build(c.Ads, Options{})
	for _, q := range wl.Queries {
		query := strings.Join(q.Words, " ")
		want := ix.BroadMatch(query)
		res := ix.Match(nil, Query{Text: query, Budget: QueryBudget{}})
		if res.Truncated {
			t.Fatalf("query %q: unlimited budget truncated", query)
		}
		if len(res.Ads) != len(want) {
			t.Fatalf("query %q: budgeted %d ads, plain %d", query, len(res.Ads), len(want))
		}
		for i := range want {
			if res.Ads[i].ID != want[i].ID {
				t.Fatalf("query %q: ad %d: budgeted ID %d, plain %d", query, i, res.Ads[i].ID, want[i].ID)
			}
		}
	}
}

// TestBroadMatchBudgetTruncationSubset: under tight budgets, results
// are ID-ordered subsets of the full set, flagged truncated whenever
// short, with the spend reported.
func TestBroadMatchBudgetTruncationSubset(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 23})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 150, Seed: 24})
	ix := Build(c.Ads, Options{})
	truncations := 0
	for _, q := range wl.Queries {
		query := strings.Join(q.Words, " ")
		full := ix.BroadMatch(query)
		for _, max := range []int64{1, 8, 64} {
			res := ix.Match(nil, Query{Text: query, Budget: QueryBudget{MaxCost: max}})
			j := 0
			for _, ad := range res.Ads {
				for j < len(full) && full[j].ID != ad.ID {
					j++
				}
				if j == len(full) {
					t.Fatalf("query %q budget %d: ad %d not in (or out of order vs) full result", query, max, ad.ID)
				}
				j++
			}
			if !res.Truncated && len(res.Ads) != len(full) {
				t.Fatalf("query %q budget %d: short result not flagged truncated", query, max)
			}
			if res.Truncated {
				truncations++
				if res.CostSpent <= 0 {
					t.Fatalf("query %q budget %d: truncated with CostSpent=%d", query, max, res.CostSpent)
				}
			}
		}
	}
	if truncations == 0 {
		t.Fatal("no truncations observed; test exercises nothing")
	}
}

// TestBroadMatchBudgetOverlay: delta-overlay inserts stay visible in
// truncated answers, and tombstoned base records never reappear.
func TestBroadMatchBudgetOverlay(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 800, Seed: 25})
	ix := Build(c.Ads, Options{MaxDeltaAds: 64})
	ix.Insert(NewAd(900001, "fresh overlay phrase", Meta{}))
	res := ix.Match(nil, Query{Text: "some fresh overlay phrase here", Budget: QueryBudget{MaxCost: 1}})
	found := false
	for _, ad := range res.Ads {
		if ad.ID == 900001 {
			found = true
		}
	}
	if !found {
		t.Fatal("overlay insert missing from budgeted result")
	}
	if !ix.Delete(900001, "fresh overlay phrase") {
		t.Fatal("delete failed")
	}
	res = ix.Match(nil, Query{Text: "some fresh overlay phrase here", Budget: QueryBudget{MaxCost: 1}})
	for _, ad := range res.Ads {
		if ad.ID == 900001 {
			t.Fatal("deleted ad resurfaced in budgeted result")
		}
	}
}

// TestBroadMatchLongQueryExact: a query of 13 indexed words answers what
// brute-force containment answers, every ad, untruncated, as a query of 12
// does.
func TestBroadMatchLongQueryExact(t *testing.T) {
	var ads []Ad
	var words []string
	for i := 1; i <= 13; i++ {
		w := fmt.Sprintf("w%d", i)
		words = append(words, w)
		ads = append(ads, NewAd(uint64(i), w, Meta{}))
	}
	ix := Build(ads, Options{})
	for _, n := range []int{13, 12} {
		q := strings.Join(words[:n], " ")
		res := ix.Match(nil, Query{Text: q, Budget: QueryBudget{}})
		if want := bruteForce(ads, Broad, q); !slices.Equal(idsOf(res.Ads), want) || res.Truncated {
			t.Fatalf("%d indexed words: %v, truncated %v; brute force %v", n, idsOf(res.Ads), res.Truncated, want)
		}
	}
}

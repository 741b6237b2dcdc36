package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestSearchBudgetEveryQueryKind: the overload armor reaches phrase and
// rewrite queries, not only plain broad ones, and reaches them through
// /search/batch as through /search. Under a tight Config.QueryBudget an
// adversarial query of any kind answers truncated:true with a subset of
// its unbudgeted answer, is never cached, counts in budget_truncated, and
// three strikes quarantine its fingerprint; the static word cutoff is
// reported for every kind.
func TestSearchBudgetEveryQueryKind(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 93})
	adv := workload.GenerateAdversarial(c, workload.AdvOptions{NumQueries: 8, Seed: 94})
	const budget = 8

	// get asks through /search, batch as the one query of a /search/batch;
	// both give the status and, on 200, the result in /search's shape.
	get := func(params string) func(*testing.T, string, string) (int, searchResponse) {
		return func(t *testing.T, base, q string) (int, searchResponse) {
			resp, err := testClient.Get(base + "/search?q=" + strings.ReplaceAll(q, " ", "+") + params)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var res searchResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
					t.Fatal(err)
				}
			}
			return resp.StatusCode, res
		}
	}
	batch := func(rewrite string) func(*testing.T, string, string) (int, searchResponse) {
		return func(t *testing.T, base, q string) (int, searchResponse) {
			resp, out := postBatch(t, base, batchRequest{Queries: []string{q}, Rewrite: rewrite})
			if resp.StatusCode != http.StatusOK {
				return resp.StatusCode, searchResponse{}
			}
			r := out.Results[0]
			return resp.StatusCode, searchResponse{Matched: r.Matched, Cached: r.Cached, Ads: r.Ads, Matches: r.Matches,
				Truncated: r.Truncated, CutoffApplied: r.CutoffApplied, CostSpent: r.CostSpent}
		}
	}

	for _, kind := range []struct {
		name  string
		ask   func(t *testing.T, base, q string) (int, searchResponse)
		query adindex.Query
	}{
		{"phrase", get("&type=phrase"), adindex.Query{Type: adindex.Phrase}},
		{"rewrite", get("&rewrite=on"), adindex.Query{Rewrite: true}},
		{"batch", batch(""), adindex.Query{}},
		{"batch rewrite", batch("on"), adindex.Query{Rewrite: true}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			ix := adindex.Build(c.Ads, adindex.Options{Rewrite: &adindex.RewriteOptions{}})
			s := New(ix, Config{QueryBudget: budget, QuarantineTTL: time.Minute})
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Shutdown(t.Context()) })
			base := "http://" + s.Addr()

			// An adversarial query whose unbudgeted answer is non-empty, so
			// the subset check below has something to hold.
			var inFull map[uint64]bool
			for _, q := range adv.Queries {
				kind.query.Text = strings.Join(q.Words, " ")
				full := ix.Match(nil, kind.query)
				if len(full.Ads) > 0 && !full.Truncated {
					inFull = map[uint64]bool{}
					for _, ad := range full.Ads {
						inFull[ad.ID] = true
					}
					break
				}
			}
			if inFull == nil {
				t.Fatal("no adversarial query has a non-empty answer")
			}

			for attempt := 1; attempt <= 3; attempt++ {
				code, res := kind.ask(t, base, kind.query.Text)
				if code != http.StatusOK {
					t.Fatalf("attempt %d: status %d", attempt, code)
				}
				if !res.Truncated || res.CostSpent <= 0 {
					t.Fatalf("attempt %d: not flagged truncated under budget %d: truncated=%v cost_spent=%d",
						attempt, budget, res.Truncated, res.CostSpent)
				}
				if res.Cached {
					t.Fatalf("attempt %d: truncated answer was served from cache", attempt)
				}
				ads := res.Ads
				for _, m := range res.Matches {
					ads = append(ads, m.Ad)
				}
				if len(ads) >= len(inFull) {
					t.Fatalf("attempt %d: truncated answer has %d ads, the full one %d", attempt, len(ads), len(inFull))
				}
				for _, ad := range ads {
					if !inFull[ad.ID] {
						t.Fatalf("attempt %d: truncated answer contains ad %d, which the unbudgeted answer lacks", attempt, ad.ID)
					}
				}
			}
			if got := s.metrics.BudgetTruncated.Load(); got != 3 {
				t.Fatalf("BudgetTruncated = %d, want 3", got)
			}

			// Three blowouts strike out the fingerprint.
			if code, _ := kind.ask(t, base, kind.query.Text); code != http.StatusServiceUnavailable {
				t.Fatalf("quarantined query answered %d, want 503", code)
			}
			if got := s.metrics.QuarantineRejects.Load(); got != 1 {
				t.Fatalf("QuarantineRejects = %d, want 1", got)
			}

			// Two adversarial queries together exceed MaxQueryWords.
			long := append(adv.Queries[0].Words, adv.Queries[1].Words...)
			if code, res := kind.ask(t, base, strings.Join(long, " ")); code != http.StatusOK || !res.CutoffApplied {
				t.Fatalf("%d-word query: status %d, cutoff_applied=%v", len(long), code, res.CutoffApplied)
			}
		})
	}
}

// TestSearchExactUnderBudget: type=exact is a single lookup, so the tight
// Config.QueryBudget that truncates an 8-word broad query leaves the exact
// query of the same words whole, however often it repeats, and a bid
// phrase longer than MaxQueryWords is still found.
func TestSearchExactUnderBudget(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 93})
	adv := workload.GenerateAdversarial(c, workload.AdvOptions{NumQueries: 1, QueryWords: 8, Seed: 95})
	eight := strings.Join(adv.Queries[0].Words, " ")
	fifteen := eight + " xa xb xc xd xe xf xg"
	if n := len(textnorm.WordSet(fifteen)); n <= 12 {
		t.Fatalf("long phrase has %d distinct words, want more than MaxQueryWords", n)
	}
	ads := append(c.Ads, adindex.NewAd(700001, eight, adindex.Meta{}), adindex.NewAd(700002, fifteen, adindex.Meta{}))
	s := New(adindex.Build(ads, adindex.Options{}), Config{QueryBudget: 8, QuarantineTTL: time.Minute})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(t.Context()) })
	base := "http://" + s.Addr() + "/search?q="

	var broad searchResponse
	getJSON(t, base+strings.ReplaceAll(eight, " ", "+"), &broad)
	if !broad.Truncated {
		t.Fatalf("the budget is not tight: broad %q was not truncated", eight)
	}
	for _, tc := range []struct {
		query string
		want  uint64
	}{{eight, 700001}, {fifteen, 700002}} {
		for attempt := 1; attempt <= 5; attempt++ {
			var res searchResponse
			getJSON(t, base+strings.ReplaceAll(tc.query, " ", "+")+"&type=exact", &res)
			if res.Truncated || res.CutoffApplied || len(res.Ads) != 1 || res.Ads[0].ID != tc.want {
				t.Fatalf("attempt %d, exact %q: truncated=%v cutoff=%v ads=%v, want ad %d whole",
					attempt, tc.query, res.Truncated, res.CutoffApplied, res.Ads, tc.want)
			}
		}
	}
	if got := s.metrics.BudgetTruncated.Load(); got != 1 {
		t.Fatalf("BudgetTruncated = %d, want 1 (the broad probe)", got)
	}
}

package adindex

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestAppendMatchJSONDifferential holds View.AppendMatchJSON to
// corpus.AppendAdsJSON of View.Match's copy-out, byte for byte, with the
// same count and flags, for broad, exact and phrase queries: on the base
// as built, with an overlay of inserts (new IDs, IDs the base holds, text
// to escape) and deletes pending, after a fold, and after an Optimize
// install. Seeded; each seed builds its own corpus and queries.
func TestAppendMatchJSONDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		corp := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: seed})
		ix := Build(corp.Ads, Options{MaxDeltaAds: 64})
		rng := rand.New(rand.NewSource(seed))
		wl := workload.Generate(corp, workload.GenOptions{NumQueries: 150, MaxExtraWords: 3, Seed: seed + 10})
		var queries []string
		for i := range wl.Queries {
			queries = append(queries, strings.Join(wl.Queries[i].Words, " "))
		}
		for range 150 { // phrases, alone (exact) and inside longer text (phrase)
			p := corp.Ads[rng.Intn(len(corp.Ads))].Phrase
			queries = append(queries, p, "cheap "+p+" online")
		}
		compared := 0
		check := func(stage string) {
			t.Helper()
			v := ix.View()
			for _, q := range queries {
				for _, typ := range []QueryType{Broad, Exact, Phrase} {
					query := Query{Text: q, Type: typ}
					want := v.Match(nil, query)
					got, n, res := v.AppendMatchJSON(nil, query, textnorm.WordSet(q))
					if wantJSON := corpus.AppendAdsJSON(nil, want.Ads); !bytes.Equal(got, wantJSON) {
						t.Fatalf("seed %d, %s, %q type %d:\n got %s\nwant %s", seed, stage, q, typ, got, wantJSON)
					}
					if n != len(want.Ads) || res.Ads != nil || res.Truncated != want.Truncated ||
						res.CutoffApplied != want.CutoffApplied || res.CostSpent != want.CostSpent {
						t.Fatalf("seed %d, %s, %q type %d: %d ads, %+v; Match: %d ads, %+v", seed, stage, q, typ, n, res, len(want.Ads), want)
					}
					compared += n
				}
			}
		}
		check("base")

		// An overlay: inserts under new IDs and under IDs the base holds,
		// some with exclusions that need escaping, and deletes of base ads.
		insert := func(k int) {
			for i := range k {
				src := corp.Ads[rng.Intn(len(corp.Ads))]
				id := uint64(1_000_000 + rng.Intn(1_000_000))
				if i%3 == 0 {
					id = src.ID
				}
				meta := Meta{BidMicros: int64(rng.Intn(1000)), ClickRate: uint16(i)}
				if i%2 == 0 {
					meta.Exclusions = []string{`say "no" <b>&`, "tab\there\u2028"}
				}
				ix.Insert(NewAd(id, src.Phrase, meta))
			}
			for range k / 3 {
				a := corp.Ads[rng.Intn(len(corp.Ads))]
				ix.Delete(a.ID, a.Phrase)
			}
		}
		insert(30)
		check("overlay pending")
		folds, _ := ix.FoldStats()
		insert(60) // past MaxDeltaAds: a fold
		if after, _ := ix.FoldStats(); after == folds {
			t.Fatalf("seed %d: no fold after 60 inserts past a 64-ad overlay", seed)
		}
		check("after a fold")
		insert(20)
		rep, err := ix.Optimize()
		if err != nil || !rep.Installed {
			t.Fatalf("seed %d: Optimize = %+v, %v, want an install", seed, rep, err)
		}
		check("after an Optimize install")
		t.Logf("seed %d: %d ads compared, %d re-mappings installed", seed, compared, ix.Remaps())
	}
}

package adindex

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestAppendMatchJSONDifferential holds View.AppendMatchJSON to
// corpus.AppendAdsJSON of View.Match's copy-out, byte for byte, with the
// same count and flags and a span per ad that locates exactly its bytes, for broad, exact and phrase queries: on the base
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
					got, spans, res := v.AppendMatchJSON(nil, nil, query, textnorm.WordSet(q), nil)
					if wantJSON := corpus.AppendAdsJSON(nil, want.Ads); !bytes.Equal(got, wantJSON) {
						t.Fatalf("seed %d, %s, %q type %d:\n got %s\nwant %s", seed, stage, q, typ, got, wantJSON)
					}
					checkSpans(t, got, spans, want.Ads)
					n := len(spans)
					if n != len(want.Ads) || res.Ads != nil || res.Truncated != want.Truncated || res.CostSpent != want.CostSpent {
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

// checkSpans holds the spans of an encoded array to the ads it encodes:
// one per ad, in order, each naming the ad's ID and ending where the ad's
// own encoding ends.
func checkSpans(t *testing.T, body []byte, spans []AdSpan, ads []Ad) {
	t.Helper()
	if len(spans) != len(ads) {
		t.Fatalf("%d spans for %d ads in %.80s", len(spans), len(ads), body)
	}
	start := 1
	for i, sp := range spans {
		if sp.ID != ads[i].ID || sp.End > len(body) || !bytes.Equal(body[start:sp.End], ads[i].AppendJSON(nil)) {
			t.Fatalf("span %d = %+v over %.80s, want ad %d encoded", i, sp, body[start:min(sp.End, len(body))], ads[i].ID)
		}
		start = sp.End + 1
	}
}

// TestAppendMatchJSONTokens: an exact or phrase query whose caller passes
// the token sequence it built is answered from those tokens, and its reply
// is byte for byte the one the view gives when it tokenizes the text
// itself — over repeated words (which exact match folds), mixed case and
// punctuation, with an overlay pending. The queries are corpus phrases
// varied those ways, alone and inside longer text.
func TestAppendMatchJSONTokens(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		corp := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		// Phrases with a repeated word, so exact match has folded tokens
		// to compare.
		var extra []Ad
		for i := range 40 {
			w := strings.Fields(corp.Ads[rng.Intn(len(corp.Ads))].Phrase)
			extra = append(extra, NewAd(uint64(2_000_000+i), w[0]+" "+strings.Join(w, " "), Meta{BidMicros: int64(i)}))
		}
		ix := Build(append(corp.Ads, extra[:20]...), Options{})
		for i := range extra[20:] {
			ix.Insert(extra[20+i])
		}
		vary := []func(string) string{
			func(p string) string { return p },
			strings.ToUpper,
			func(p string) string { return strings.ReplaceAll(p, " ", ", ") + "!" },
			func(p string) string { // every other letter upper-case
				b := []byte(p)
				for i := 0; i < len(b); i += 2 {
					if 'a' <= b[i] && b[i] <= 'z' {
						b[i] -= 'a' - 'A'
					}
				}
				return "¿" + string(b) + "?"
			},
			func(p string) string { return p + " " + p },
			func(p string) string { w := strings.Fields(p); return w[0] + " " + p },
		}
		v := ix.View()
		compared, folded := 0, 0
		for range 200 {
			var p string
			if rng.Intn(2) == 0 {
				p = extra[rng.Intn(len(extra))].Phrase
			} else {
				p = corp.Ads[rng.Intn(len(corp.Ads))].Phrase
			}
			text := vary[rng.Intn(len(vary))](p)
			for _, q := range []string{text, "Cheap " + text + " ONLINE."} {
				for _, typ := range []QueryType{Exact, Phrase} {
					query := Query{Text: q, Type: typ}
					words, tokens := textnorm.WordSet(q), textnorm.AppendTokens(nil, q)
					want, wantSpans, wantRes := v.AppendMatchJSON(nil, nil, query, words, nil)
					got, spans, res := v.AppendMatchJSON(nil, nil, query, words, tokens)
					if !bytes.Equal(got, want) || len(spans) != len(wantSpans) || !reflect.DeepEqual(res, wantRes) {
						t.Fatalf("seed %d, %q type %d: with the caller's tokens %s (%+v)\nwith its own %s (%+v)", seed, q, typ, got, res, want, wantRes)
					}
					checkSpans(t, got, spans, v.Match(nil, query).Ads)
					compared += len(spans)
					for _, sp := range spans {
						if typ == Exact && sp.ID >= 2_000_000 {
							folded++ // an exact match of a phrase with a repeated word
						}
					}
				}
			}
		}
		if folded == 0 {
			t.Fatalf("seed %d: no exact query matched a phrase with a repeated word (%d ads compared)", seed, compared)
		}
		t.Logf("seed %d: %d ads compared, %d exact matches of folded phrases", seed, compared, folded)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// walk is what one subset walk leaves: the nodes it visited, in order,
// the counters and budget it charged, and the probes of H it made.
type walk struct {
	visited  []uint32
	counters costmodel.Counters
	spent    int64
	probes   int
}

// walkOf runs the subset walk of q on ix, under a budget of maxCost units
// where maxCost > 0.
func walkOf(ix *Index, q []string, maxCost int64) walk {
	var sc Scratch
	var w walk
	var b *Budget
	if maxCost > 0 {
		b = &Budget{MaxCost: maxCost}
	}
	ix.prepare(&sc, q)
	w.visited = slices.Clone(ix.appendCandidateNodes(&w.counters, &sc, b))
	if b != nil {
		w.spent = b.Spent()
	}
	w.probes = sc.probes
	return w
}

// requireFilterSound holds ix's filtered walk to the unfiltered one — the
// same walk with every successor filter full, which probes every
// considered subset — on each query, unbounded and under budgets that cut
// the walk short: the same nodes in the same order, the same counters and
// the same budget spent, in no more probes. It returns the probes of
// both.
func requireFilterSound(t *testing.T, what string, ix *Index, queries [][]string) (filtered, unfiltered int) {
	t.Helper()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	succ := ix.voc.succ
	full := make([]uint64, len(succ))
	for i := range full {
		full[i] = ^uint64(0)
	}
	for _, q := range queries {
		for _, maxCost := range []int64{0, 1, 3, 7} {
			got := walkOf(ix, q, maxCost)
			ix.voc.succ = full
			want := walkOf(ix, q, maxCost)
			ix.voc.succ = succ
			if !slices.Equal(got.visited, want.visited) || got.counters != want.counters || got.spent != want.spent {
				t.Fatalf("%s: query %v, budget %d: filtered walk visits %v, %+v, spends %d; unfiltered %v, %+v, %d",
					what, q, maxCost, got.visited, got.counters, got.spent, want.visited, want.counters, want.spent)
			}
			if got.probes > want.probes {
				t.Fatalf("%s: query %v: %d probes filtered, %d unfiltered", what, q, got.probes, want.probes)
			}
			if maxCost == 0 {
				filtered += got.probes
				unfiltered += want.probes
			}
		}
	}
	return filtered, unfiltered
}

// filterQueries are queries that reach ix's locators: ad word sets with
// extra words, pairs of ads merged, and words drawn at random.
func filterQueries(rng *rand.Rand, ads []corpus.Ad, n int) [][]string {
	var vocab []string
	for _, ad := range ads {
		vocab = append(vocab, ad.Words...)
	}
	if len(vocab) == 0 {
		return nil
	}
	queries := make([][]string, 0, n)
	for len(queries) < n {
		var words []string
		switch rng.Intn(3) {
		case 0:
			words = append(words, ads[rng.Intn(len(ads))].Words...)
			for j := rng.Intn(4); j > 0; j-- {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
		case 1:
			words = append(append(words, ads[rng.Intn(len(ads))].Words...), ads[rng.Intn(len(ads))].Words...)
		default:
			for j := 1 + rng.Intn(8); j > 0; j-- {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
		}
		queries = append(queries, textnorm.CanonicalSet(words))
	}
	return queries
}

// smallVocabAds are n ads over a vocabulary of size words, so that many
// locators share prefixes and words, and some phrases pass maxWords.
func smallVocabAds(rng *rand.Rand, n, size, maxLen int) []corpus.Ad {
	ads := make([]corpus.Ad, n)
	for i := range ads {
		words := make([]string, 1+rng.Intn(maxLen))
		for j := range words {
			words[j] = fmt.Sprintf("w%d", rng.Intn(size))
		}
		ads[i] = corpus.NewAd(uint64(i+1), strings.Join(words, " "), corpus.Meta{})
	}
	return ads
}

// TestSuccessorFilterSound: the successor filters skip only probes that
// would have failed. On generated and small-vocabulary corpora, with long
// phrases placed at their rarest words, under an explicit mapping, frozen
// and on the heap, and through Insert and Delete churn, the filtered walk
// visits exactly the nodes, in the same order, that the walk probing every
// subset visits, and charges the same. CheckInvariants holds every
// locator's words to their bits.
func TestSuccessorFilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	corpora := map[string][]corpus.Ad{
		"generated": corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 53}).Ads,
		"small":     smallVocabAds(rng, 800, 40, 6),
		"long":      smallVocabAds(rng, 300, 200, 16),
		"awkward":   awkwardAds(),
	}
	var filtered, unfiltered int
	for name, ads := range corpora {
		queries := filterQueries(rng, ads, 300)
		for _, opts := range []Options{{}, {MaxWords: 3}} {
			for _, mapping := range []map[string][]string{nil, remapping(ads)} {
				what := fmt.Sprintf("%s MaxWords=%d mapped=%v", name, opts.MaxWords, mapping != nil)
				heap, err := NewWithMapping(ads, mapping, opts)
				if err != nil {
					t.Fatal(err)
				}
				f, u := requireFilterSound(t, what+" heap", heap, queries)
				filtered, unfiltered = filtered+f, unfiltered+u
				frozen, err := NewFrozen(ads, mapping, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireFilterSound(t, what+" frozen", frozen, queries)
			}
		}
	}
	t.Logf("probes: %d filtered, %d unfiltered", filtered, unfiltered)
	if filtered >= unfiltered {
		t.Errorf("the filters skipped no probe: %d of %d made", filtered, unfiltered)
	}

	// Churn: every Insert brings new adjacencies — fresh words, long
	// phrases, old words in new sets — and Deletes leave stale bits.
	base := smallVocabAds(rng, 400, 60, 5)
	ix := New(base, Options{MaxWords: 4})
	live := slices.Clone(base)
	var inserted []corpus.Ad
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if !ix.Delete(live[i].ID, live[i].Phrase) {
				t.Fatalf("step %d: Delete(%d, %q) missed", step, live[i].ID, live[i].Phrase)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			words := make([]string, 1+rng.Intn(7))
			for j := range words {
				if rng.Intn(4) == 0 {
					words[j] = fmt.Sprintf("fresh%d", rng.Intn(30))
				} else {
					words[j] = fmt.Sprintf("w%d", rng.Intn(60))
				}
			}
			ad := corpus.NewAd(uint64(10_000+step), strings.Join(words, " "), corpus.Meta{})
			ix.Insert(ad)
			live = append(live, ad)
			inserted = append(inserted, ad)
		}
		if step%50 == 49 {
			requireFilterSound(t, fmt.Sprintf("churn step %d", step), ix, filterQueries(rng, inserted, 100))
			requireFilterSound(t, fmt.Sprintf("churn step %d", step), ix, filterQueries(rng, live, 100))
		}
	}
}

// BenchmarkColdMatch is http-cold's query stream without the server:
// distinct cold-mix queries (one in ten embeds an ad's word set, half are
// long, each capped at 12 words as bench/'s streams are) matched by AppendBroadRefs on a
// frozen 200k-ad base, as a local adserve serves them. Besides ns/op it
// reports, per query, the probes of H the walk made (probes/query), the
// subsets it considered — Counters.HashProbes, the lookups(n) term of
// Equation 2, which counts a subset the successor filters skip as it
// counts a probed one — (lookups/query) and the nodes it visited
// (nodes/query).
func BenchmarkColdMatch(b *testing.B) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	wl := workload.Generate(c, workload.GenOptions{
		NumQueries: 20_000, HitProb: 0.1, MaxExtraWords: 6, LongQueryProb: 0.5,
		ZipfS: 1, MaxFreq: 200, Seed: 2,
	})
	queries := make([][]string, len(wl.Queries))
	for i, q := range wl.Queries {
		queries[i] = textnorm.WordSet(strings.Join(q.Words[:min(len(q.Words), 12)], " "))
	}
	ix, err := NewFrozen(c.Ads, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var sc Scratch
	var counters costmodel.Counters
	var dst []Ref
	for _, q := range queries {
		dst = ix.AppendBroadRefs(dst[:0], q, &counters, &sc, nil)
	}
	n := float64(len(queries))
	probes := float64(sc.probes) / n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.AppendBroadRefs(dst[:0], queries[i%len(queries)], nil, &sc, nil)
	}
	b.ReportMetric(probes, "probes/query")
	b.ReportMetric(float64(counters.HashProbes)/n, "lookups/query")
	b.ReportMetric(float64(counters.NodesVisited)/n, "nodes/query")
}

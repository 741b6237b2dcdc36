package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

var (
	longOnce   sync.Once
	longCorpus *corpus.Corpus
	longIndex  *Index
)

// unionQueries returns n canonical queries of exactly width distinct
// words, each the words of random ads of c one after another (the last
// one cut), so every query holds whole ad word sets to match.
func unionQueries(c *corpus.Corpus, n, width int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	queries := make([][]string, n)
	for i := range queries {
		seen := map[string]bool{}
		var words []string
		for len(words) < width {
			for _, w := range c.Ads[rng.Intn(len(c.Ads))].Words {
				if !seen[w] && len(words) < width {
					seen[w] = true
					words = append(words, w)
				}
			}
		}
		queries[i] = textnorm.CanonicalSet(words)
	}
	return queries
}

// BenchmarkLongQuery is the budgeted subset walk, as every served query
// runs it, on queries past the 12 words the paper's cut kept: on a frozen
// 200k-ad base (seed 1), union-of-ads queries (the words of random ads
// one after another) and GenerateAdversarial's (the corpus's most
// frequent words) of 12, 16, 20, 24 and 32 words. Besides ns/op it
// reports, per query, the subsets the walk considered
// (Counters.HashProbes; the walk bound is 4 082), the probes of H it made,
// the nodes it visited, the matches, and the share of queries the bound
// truncated.
func BenchmarkLongQuery(b *testing.B) {
	longOnce.Do(func() {
		longCorpus = corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
		ix, err := NewFrozen(longCorpus.Ads, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		longIndex = ix
	})
	for _, kind := range []string{"union", "adversarial"} {
		for _, width := range []int{12, 16, 20, 24, 32} {
			var queries [][]string
			if kind == "union" {
				queries = unionQueries(longCorpus, 200, width, 1)
			} else {
				wl := workload.GenerateAdversarial(longCorpus, workload.AdvOptions{NumQueries: 64, QueryWords: width, Seed: 1})
				for _, q := range wl.Queries {
					queries = append(queries, q.Words)
				}
			}
			b.Run(fmt.Sprintf("%s/words=%d", kind, width), func(b *testing.B) {
				benchLongQueries(b, longIndex, queries)
			})
		}
	}
}

func benchLongQueries(b *testing.B, ix *Index, queries [][]string) {
	var sc Scratch
	var counters costmodel.Counters
	var dst []Ref
	var budget Budget
	truncated := 0
	for _, q := range queries {
		budget.Init(0, time.Time{})
		dst = ix.AppendBroadRefs(dst[:0], q, &counters, &sc, &budget)
		if budget.Exhausted() {
			truncated++
		}
	}
	n := float64(len(queries))
	probes := float64(sc.probes) / n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget.Init(0, time.Time{})
		dst = ix.AppendBroadRefs(dst[:0], queries[i%len(queries)], nil, &sc, &budget)
	}
	b.ReportMetric(float64(counters.HashProbes)/n, "subsets/query")
	b.ReportMetric(probes, "probes/query")
	b.ReportMetric(float64(counters.NodesVisited)/n, "nodes/query")
	b.ReportMetric(float64(counters.Matches)/n, "matches/query")
	b.ReportMetric(float64(truncated)/n, "truncated/query")
}

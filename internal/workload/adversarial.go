// Adversarial workloads for overload testing: queries built to maximize
// index work, and arrival patterns built to maximize contention. The
// standard generator models cooperative traffic (queries correlated
// with the corpus, power-law frequencies); this file models the other
// kind — the crawler with a 16-word query template, the flash crowd
// hammering one query, the client that retries its heaviest request in
// a loop. Overload armor (cost budgets, shedding, quarantine) is tested
// against these.
package workload

import (
	"math/rand"
	"sort"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// AdvOptions configures GenerateAdversarial.
type AdvOptions struct {
	// NumQueries is the number of distinct adversarial queries. Default 64.
	NumQueries int
	// QueryWords is the word count per query. Cost of subset enumeration
	// grows with query length; at the default 12 a query's walk may
	// consider every subset the walk bound allows, and past it the bound
	// truncates. Default 12.
	QueryWords int
	// TopWords is the size of the high-document-frequency vocabulary
	// pool queries draw from. Frequent words are what make a long query
	// expensive: every subset of them is a live locator prefix, so the
	// enumeration cannot prune. Default 4×QueryWords.
	TopWords int
	// Seed makes generation deterministic.
	Seed int64
}

func (o *AdvOptions) fillDefaults() {
	if o.NumQueries == 0 {
		o.NumQueries = 64
	}
	if o.QueryWords == 0 {
		o.QueryWords = 12
	}
	if o.TopWords == 0 {
		o.TopWords = 4 * o.QueryWords
	}
}

// topByDocFreq returns the corpus vocabulary sorted by descending
// document frequency, truncated to k words (ties broken
// lexicographically for determinism).
func topByDocFreq(c *corpus.Corpus, k int) []string {
	df := make(map[string]int)
	for i := range c.Ads {
		for _, w := range c.Ads[i].Words {
			df[w]++
		}
	}
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if df[words[i]] != df[words[j]] {
			return df[words[i]] > df[words[j]]
		}
		return words[i] < words[j]
	})
	if k < len(words) {
		words = words[:k]
	}
	return words
}

// GenerateAdversarial produces a deterministic workload of maximally
// expensive queries: long (12 words by default) and built
// exclusively from the corpus's most frequent words, so the
// subset-enumeration search space is both wide and full of live
// locator prefixes (random-word queries of the same length cost almost
// nothing — the locator-prefix pruning kills their subtrees
// immediately). All queries get frequency 1: a flood is uniform, not
// power-law.
func GenerateAdversarial(c *corpus.Corpus, opts AdvOptions) *Workload {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	pool := topByDocFreq(c, opts.TopWords)
	if len(pool) == 0 {
		return &Workload{}
	}
	n := opts.QueryWords
	if n > len(pool) {
		n = len(pool)
	}

	seen := make(map[string]bool, opts.NumQueries)
	queries := make([]Query, 0, opts.NumQueries)
	for attempts := 0; len(queries) < opts.NumQueries && attempts < opts.NumQueries*20; attempts++ {
		// Sample n distinct pool words (partial Fisher–Yates).
		perm := rng.Perm(len(pool))[:n]
		words := make([]string, 0, n)
		for _, pi := range perm {
			words = append(words, pool[pi])
		}
		words = textnorm.CanonicalSet(words)
		key := textnorm.SetKey(words)
		if seen[key] {
			continue
		}
		seen[key] = true
		queries = append(queries, Query{Words: words, Freq: 1})
	}
	return &Workload{Queries: queries}
}

// FlashCrowdStream expands the workload into n query occurrences where
// bursts of one repeated query (a flash crowd: a news event, a retry
// loop, an attack) interrupt frequency-proportional background traffic.
// burst is the repeat length of each crowd (default 16 when <= 0);
// roughly half the stream is crowd traffic. Deterministic under seed.
func (wl *Workload) FlashCrowdStream(n, burst int, seed int64) []*Query {
	if len(wl.Queries) == 0 || n <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 16
	}
	background := wl.Stream(n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]*Query, 0, n)
	for len(out) < n {
		if rng.Intn(2) == 0 {
			// A crowd: one query, burst times.
			q := &wl.Queries[rng.Intn(len(wl.Queries))]
			for i := 0; i < burst && len(out) < n; i++ {
				out = append(out, q)
			}
			continue
		}
		out = append(out, background[len(out)])
	}
	return out
}

// Workload tuning: observe a skewed query stream, re-optimize the index
// layout against it, and measure the change in memory-access cost.
//
// This demonstrates contribution (III) of the paper: adapting the mapping
// to (statistical information on) a query workload. Re-mapping merges data
// nodes that the hot queries co-access, converting random accesses into
// sequential scans; results are provably unchanged.
//
// Run with:
//
//	go run ./examples/workloadtuning
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"adindex"
)

func main() {
	// A product catalog where variants share prefixes with a base phrase:
	// exactly the subset structure re-mapping exploits.
	rng := rand.New(rand.NewSource(7))
	categories := []string{"running shoes", "trail shoes", "leather boots", "rain jacket", "wool socks"}
	modifiers := []string{"cheap", "discount", "kids", "mens", "womens", "waterproof", "sale"}

	var ads []adindex.Ad
	id := uint64(1)
	for _, cat := range categories {
		ads = append(ads, adindex.NewAd(id, cat, adindex.Meta{BidMicros: int64(100000 + rng.Intn(400000))}))
		id++
		for _, m := range modifiers {
			ads = append(ads, adindex.NewAd(id, m+" "+cat,
				adindex.Meta{BidMicros: int64(50000 + rng.Intn(300000))}))
			id++
		}
	}
	ix := adindex.Build(ads, adindex.Options{})
	fmt.Printf("indexed %d ads, %d nodes\n", ix.Stats().NumAds, ix.Stats().NumNodes)

	// A skewed stream: a few hot queries dominate (power law), and the hot
	// queries contain a category plus modifiers, co-accessing the base
	// node and its variant nodes.
	queries := make([]string, 0, 64)
	for _, cat := range categories {
		queries = append(queries, "best "+cat+" deals")
		for _, m := range modifiers[:3] {
			queries = append(queries, m+" "+cat+" near me")
		}
	}
	const streamLen = 50_000
	for i := 0; i < streamLen; i++ {
		// Zipf-ish pick: rank r with probability ∝ 1/(r+1).
		r := int(float64(len(queries)) * (1 - rng.Float64()*rng.Float64()))
		if r >= len(queries) {
			r = len(queries) - 1
		}
		ix.Observe(queries[r])
	}
	fmt.Printf("observed %d distinct queries from a stream of %d\n",
		ix.ObservedQueries(), streamLen)

	// Measure access cost of the hot queries before optimization.
	costBefore := measure(ix, queries)

	report, err := ix.Optimize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimize: %d nodes -> %d nodes, modeled cost %.0f -> %.0f\n",
		report.NodesBefore, report.NodesAfter,
		report.ModeledCostBefore, report.ModeledCostAfter)

	costAfter := measure(ix, queries)
	fmt.Printf("measured random accesses/query: %.1f -> %.1f\n",
		costBefore, costAfter)

	// Correctness spot check: the same query returns the same ads.
	q := "cheap running shoes near me"
	fmt.Printf("results for %q after re-mapping:\n", q)
	for _, ad := range ix.BroadMatch(q) {
		fmt.Printf("  #%d %q\n", ad.ID, ad.Phrase)
	}
	_ = strings.TrimSpace
}

func measure(ix *adindex.Index, queries []string) float64 {
	var c adindex.Counters
	for _, q := range queries {
		ix.Match(nil, adindex.Query{Text: q, Counters: &c})
	}
	return float64(c.RandomAccesses) / float64(len(queries))
}

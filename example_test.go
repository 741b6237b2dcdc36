package adindex_test

// Runnable documentation examples for the public API (shown on the
// package's godoc pages).

import (
	"fmt"

	"adindex"
)

func ExampleIndex_Optimize() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "running shoes", adindex.Meta{}),
		adindex.NewAd(2, "cheap running shoes", adindex.Meta{}),
	}, adindex.Options{})

	// Answer a skewed stream: the index samples the queries it answers,
	// and in these the two shoe nodes are always co-accessed.
	for i := 0; i < 1000; i++ {
		ix.BroadMatch("cheap running shoes sale")
	}
	report, err := ix.Optimize()
	if err != nil {
		panic(err)
	}
	fmt.Printf("nodes %d -> %d\n", report.NodesBefore, report.NodesAfter)
	fmt.Println(len(ix.BroadMatch("cheap running shoes sale")), "ads still match")
	// Output:
	// nodes 2 -> 1
	// 2 ads still match
}

func ExampleIndex_Match_exact() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{}),
		adindex.NewAd(2, "books used", adindex.Meta{}),
	}, adindex.Options{})
	// Exact match respects token order; broad match does not.
	exact := ix.Match(nil, adindex.Query{Text: "used books", Type: adindex.Exact})
	fmt.Println(len(exact.Ads), len(ix.BroadMatch("used books")))
	// Output: 1 2
}

func ExampleIndex_Match() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "running shoes", adindex.Meta{}),
		adindex.NewAd(2, "shoes", adindex.Meta{}),
	}, adindex.Options{Rewrite: &adindex.RewriteOptions{}})

	// One method, options side by side: a phrase query under a work budget…
	res := ix.Match(nil, adindex.Query{
		Text:   "buy running shoes",
		Type:   adindex.Phrase,
		Budget: adindex.QueryBudget{MaxCost: 1000},
	})
	fmt.Println(len(res.Ads), "phrase matches, truncated:", res.Truncated)

	// …and a misspelled broad query answered through a spelling rewrite.
	res = ix.Match(nil, adindex.Query{Text: "runing shoes", Rewrite: true})
	for _, m := range res.Matches() {
		fmt.Println(m.ID, m.Info.Type)
	}
	// Output:
	// 2 phrase matches, truncated: false
	// 1 fuzzy
	// 2 exact
}

package adindex_test

// Runnable documentation examples for the public API (shown on the
// package's godoc pages).

import (
	"bytes"
	"fmt"

	"adindex"
)

func ExampleIndex_Observe() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "running shoes", adindex.Meta{}),
		adindex.NewAd(2, "cheap running shoes", adindex.Meta{}),
	}, adindex.Options{})

	// Observe a skewed stream: the two book nodes are always co-accessed.
	for i := 0; i < 1000; i++ {
		ix.Observe("cheap running shoes sale")
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

func ExampleIndex_Snapshot() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{BidMicros: 100000}),
	}, adindex.Options{})

	snap, err := ix.Snapshot(0) // 0 = auto-select the suffix width
	if err != nil {
		panic(err)
	}
	// Persist and reload.
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		panic(err)
	}
	reloaded, err := adindex.LoadSnapshot(&buf)
	if err != nil {
		panic(err)
	}
	ads, err := reloaded.BroadMatch("cheap used books")
	if err != nil {
		panic(err)
	}
	fmt.Println(ads[0].Phrase)
	// Output: used books
}

func ExampleIndex_ExactMatch() {
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{}),
		adindex.NewAd(2, "books used", adindex.Meta{}),
	}, adindex.Options{})
	// Exact match respects token order; broad match does not.
	fmt.Println(len(ix.ExactMatch("used books")), len(ix.BroadMatch("used books")))
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

func ExampleNewSharded() {
	ads := adindex.GenerateAds(10000, 1)
	cluster, err := adindex.NewSharded(ads, 4, adindex.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(cluster.NumShards(), "shards,", cluster.NumAds(), "ads")
	// Output: 4 shards, 10000 ads
}

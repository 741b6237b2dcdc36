// Quickstart: build a broad-match index over a handful of bids and run the
// three match types against it.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"adindex"
)

func main() {
	ads := []adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{BidMicros: 250_000, ClickRate: 120}),
		adindex.NewAd(2, "comic books", adindex.Meta{BidMicros: 310_000, ClickRate: 45}),
		adindex.NewAd(3, "cheap used books", adindex.Meta{BidMicros: 150_000, ClickRate: 300}),
		adindex.NewAd(4, "rare book restoration", adindex.Meta{BidMicros: 920_000, ClickRate: 15}),
		adindex.NewAd(5, "talk talk", adindex.Meta{BidMicros: 80_000}), // the band
	}
	ix := adindex.Build(ads, adindex.Options{})

	// Broad match: all bid words must occur in the query (not vice versa).
	// "used books" matches; "comic books" does not (no "comic" in query).
	query := "cheap used books online"
	fmt.Printf("broad match %q:\n", query)
	for _, ad := range ix.BroadMatch(query) {
		fmt.Printf("  #%d %q bid=%d\n", ad.ID, ad.Phrase, ad.Meta.BidMicros)
	}

	// Duplicate words carry meaning: "talk talk" is the band, and the bid
	// "talk talk" does not match a query with a single "talk".
	fmt.Printf("broad match %q -> %d ads\n", "talk", len(ix.BroadMatch("talk")))
	fmt.Printf("broad match %q -> %d ads\n", "talk talk tour", len(ix.BroadMatch("talk talk tour")))

	// Exact and phrase match reuse the same structure: Match takes the
	// query type.
	exact := ix.Match(nil, adindex.Query{Text: "used books", Type: adindex.Exact})
	fmt.Printf("exact match %q -> %d ads\n", "used books", len(exact.Ads))
	fmt.Printf("phrase match %q:\n", "buy used books now")
	phrase := ix.Match(nil, adindex.Query{Text: "buy used books now", Type: adindex.Phrase})
	for _, ad := range phrase.Ads {
		fmt.Printf("  #%d %q\n", ad.ID, ad.Phrase)
	}

	// The auction step: exclusions, bid floor, ranking.
	winners := adindex.SelectAds(query, ix.BroadMatch(query), adindex.Selection{
		MinBidMicros:          100_000,
		RankByExpectedRevenue: true,
		MaxResults:            2,
	})
	fmt.Println("auction winners:")
	for rank, ad := range winners {
		fmt.Printf("  %d. #%d %q (bid=%d ctr=%d)\n", rank+1, ad.ID, ad.Phrase,
			ad.Meta.BidMicros, ad.Meta.ClickRate)
	}

	s := ix.Stats()
	fmt.Printf("index: %d ads in %d data nodes (%d distinct word sets)\n",
		s.NumAds, s.NumNodes, s.DistinctSets)
}

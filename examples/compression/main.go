// Compression: compare the conventional hash-table index with the
// Section VI compressed snapshot (front-coded data nodes + succinct
// B^sig/B^off bit arrays) on space and on query cost.
//
// Run with:
//
//	go run ./examples/compression -ads 50000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"adindex"
)

func main() {
	numAds := flag.Int("ads", 50000, "synthetic catalog size")
	flag.Parse()

	ads := catalog(*numAds, 3)
	ix := adindex.Build(ads, adindex.Options{})
	st := ix.Stats()
	fmt.Printf("hash index: %d ads, %d nodes, %d node-payload bytes\n",
		st.NumAds, st.NumNodes, st.NodeBytes)

	for _, suffixBits := range []int{0, 16, 20, 24} {
		snap, err := ix.Snapshot(suffixBits)
		if err != nil {
			log.Fatal(err)
		}
		sz := snap.Sizes()
		label := fmt.Sprintf("s=%d", sz.SuffixBits)
		if suffixBits == 0 {
			label += " (auto)"
		}
		fmt.Printf("\ncompressed snapshot %s:\n", label)
		fmt.Printf("  nodes (suffix-merged): %d\n", sz.Nodes)
		fmt.Printf("  arena (front-coded):   %d B (raw payload %d B)\n", sz.ArenaBytes, st.NodeBytes)
		fmt.Printf("  B^sig: %d B plain, entropy bound %.0f b\n", sz.SigBytes, sz.SigEntropyBits)
		fmt.Printf("  B^off: %d B sparse,  entropy bound %.0f b\n", sz.OffBytes, sz.OffEntropyBits)
		fmt.Printf("  lookup structures vs hash table: %d B vs ~%d B\n",
			sz.SigBytes+sz.OffBytes, sz.HashTableBytes)
		entropyTotal := (sz.SigEntropyBits + sz.OffEntropyBits) / 8
		fmt.Printf("  entropy-bound ratio (paper's 9:1 analysis): %.1f:1\n",
			float64(sz.HashTableBytes)/entropyTotal)

		// Verify equivalence and compare bytes touched per query.
		var ch, cc adindex.Counters
		queries := sampleQueries(ads, 500)
		for _, q := range queries {
			a := ix.Match(nil, adindex.Query{Text: q, Counters: &ch}).Ads
			b, err := snap.BroadMatch(q, &cc)
			if err != nil {
				log.Fatal(err)
			}
			if len(a) != len(b) {
				log.Fatalf("snapshot diverged on %q: %d vs %d results", q, len(a), len(b))
			}
		}
		fmt.Printf("  bytes scanned / query: hash=%d compressed=%d\n",
			ch.BytesScanned/int64(len(queries)), cc.BytesScanned/int64(len(queries)))
	}
}

func catalog(n int, seed int64) []adindex.Ad {
	rng := rand.New(rand.NewSource(seed))
	heads := []string{"shoes", "boots", "jacket", "bike", "books", "hotel", "flights", "insurance"}
	mods := []string{"cheap", "best", "kids", "mens", "womens", "discount", "luxury", "budget", "local"}
	ads := make([]adindex.Ad, n)
	for i := range ads {
		var sb strings.Builder
		for m := rng.Intn(3); m > 0; m-- {
			sb.WriteString(mods[rng.Intn(len(mods))])
			sb.WriteByte(' ')
		}
		sb.WriteString(heads[rng.Intn(len(heads))])
		ads[i] = adindex.NewAd(uint64(i+1), sb.String(), adindex.Meta{
			BidMicros: int64(10000 + rng.Intn(999000)),
			ClickRate: uint16(rng.Intn(500)),
		})
	}
	return ads
}

func sampleQueries(ads []adindex.Ad, n int) []string {
	rng := rand.New(rand.NewSource(99))
	out := make([]string, n)
	for i := range out {
		ad := ads[rng.Intn(len(ads))]
		out[i] = ad.Phrase + " online now"
	}
	return out
}

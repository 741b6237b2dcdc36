// Adserver: an end-to-end sponsored-search retrieval service built on the
// production serving layer (internal/server). It generates a synthetic
// campaign catalog, serves broad-match queries over HTTP with result
// caching and admission control, applies the auction-side filters, and
// periodically re-optimizes the index layout from the observed traffic —
// the full lifecycle the paper's system would run in production.
//
// Run with:
//
//	go run ./examples/adserver -addr :8077 -ads 20000
//
// then query it:
//
//	curl 'http://localhost:8077/search?q=cheap+running+shoes'
//	curl 'http://localhost:8077/metrics'
//
// This example also demonstrates the self-driving mode used by automated
// tests: -demo runs a scripted session against the server and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"adindex"
	"adindex/internal/server"
)

// buildCatalog synthesizes a campaign catalog with realistic phrase
// structure: base products plus modifier variants, some with negative
// keywords.
func buildCatalog(n int, seed int64) []adindex.Ad {
	rng := rand.New(rand.NewSource(seed))
	products := []string{
		"running shoes", "trail shoes", "dress shoes", "leather boots",
		"rain jacket", "down jacket", "wool socks", "yoga mat",
		"mountain bike", "road bike", "bike helmet", "tennis racket",
		"used books", "comic books", "cook books",
	}
	modifiers := []string{"cheap", "discount", "best", "kids", "mens", "womens",
		"waterproof", "sale", "clearance", "premium"}
	ads := make([]adindex.Ad, 0, n)
	for i := 0; i < n; i++ {
		phrase := products[rng.Intn(len(products))]
		for m := rng.Intn(3); m > 0; m-- {
			phrase = modifiers[rng.Intn(len(modifiers))] + " " + phrase
		}
		meta := adindex.Meta{
			CampaignID: uint32(rng.Intn(500)),
			BidMicros:  int64(20_000 + rng.Intn(2_000_000)),
			ClickRate:  uint16(rng.Intn(800)),
		}
		if rng.Intn(20) == 0 {
			meta.Exclusions = []string{"free"}
		}
		ads = append(ads, adindex.NewAd(uint64(i+1), phrase, meta))
	}
	return ads
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	numAds := flag.Int("ads", 20000, "synthetic catalog size")
	demo := flag.Bool("demo", false, "run a scripted client session and exit")
	optimizeEvery := flag.Duration("optimize-every", 0, "periodic re-optimization interval (0 = manual via /optimize)")
	flag.Parse()

	log.Printf("building catalog of %d ads...", *numAds)
	ix := adindex.Build(buildCatalog(*numAds, 1), adindex.Options{})
	st := ix.Stats()
	log.Printf("index ready: %d ads, %d nodes", st.NumAds, st.NumNodes)

	srv := server.New(ix, server.Config{
		// The auction: rank matches by expected revenue, return the top 5.
		Selection: &adindex.Selection{
			RankByExpectedRevenue: true,
			MaxResults:            5,
		},
	})

	if *optimizeEvery > 0 {
		// A tick re-plans only after new queries, and installs only a
		// mapping that lowers modeled cost.
		ix.StartAdapt(*optimizeEvery)
	}
	defer ix.Close()

	if *demo {
		if err := srv.Start(*addr); err != nil {
			log.Fatal(err)
		}
		runDemo(fmt.Sprintf("http://%s", srv.Addr()))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := srv.Run(*addr); err != nil {
		log.Fatal(err)
	}
}

type searchResponse struct {
	Query   string       `json:"query"`
	Matched int          `json:"matched"`
	Cached  bool         `json:"cached"`
	Ads     []adindex.Ad `json:"ads"`
	TookUS  int64        `json:"took_us"`
}

func runDemo(base string) {
	queries := []string{
		"cheap running shoes sale",
		"waterproof rain jacket for hiking",
		"used books free shipping",
		"best mountain bike helmet deals",
		"cheap running shoes sale", // second sighting: the cache stores the reply
		"running shoes sale cheap", // same word set: served from the result cache
	}
	for _, q := range queries {
		resp, err := http.Get(base + "/search?q=" + strings.ReplaceAll(q, " ", "+"))
		if err != nil {
			log.Fatal(err)
		}
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%-40q matched=%-4d winners=%d cached=%-5v took=%dus\n",
			out.Query, out.Matched, len(out.Ads), out.Cached, out.TookUS)
		for _, w := range out.Ads {
			fmt.Printf("    #%d %q bid=%d\n", w.ID, w.Phrase, w.Meta.BidMicros)
		}
	}
	resp, err := http.Post(base+"/optimize", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	var report adindex.OptimizeReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("optimize: nodes %d -> %d, modeled cost %.0f -> %.0f\n",
		report.NodesBefore, report.NodesAfter, report.ModeledCostBefore, report.ModeledCostAfter)

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var metrics server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("metrics: %d broad requests, cache %d/%d hit, p99=%dus\n",
		metrics.Requests.Broad, metrics.Cache.Hits,
		metrics.Cache.Hits+metrics.Cache.Misses, metrics.Latency.P99US)
}

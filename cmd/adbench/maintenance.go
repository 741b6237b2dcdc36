package main

import (
	"fmt"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

// runMaintenance validates the Section VI maintenance story: inserts are
// placed by a fast local heuristic and the global optimization is only
// recomputed periodically. The experiment measures (a) insert/delete
// throughput, (b) how far the modeled cost drifts after growing the
// corpus 10% via heuristic placement, and (c) what the periodic
// re-optimization costs and recovers.
func runMaintenance(cfg config) {
	header("§VI: maintenance — heuristic inserts vs periodic re-optimization")
	base := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(base, cfg.queries, cfg.seed+1)

	gs := optimize.BuildGroups(base.Ads, wl)
	res := optimize.Optimize(gs, optimize.Options{MaxWords: 10})
	ix, err := core.NewWithMapping(base.Ads, res.Mapping, core.Options{MaxWords: 10})
	must(err)

	// Grow the corpus by 10% through online inserts (local heuristic).
	extra := corpus.Generate(corpus.GenOptions{NumAds: cfg.ads / 10, Seed: cfg.seed + 10})
	for i := range extra.Ads {
		extra.Ads[i].ID += uint64(cfg.ads) // keep IDs unique
	}
	start := time.Now()
	for i := range extra.Ads {
		ix.Insert(extra.Ads[i])
	}
	insertRate := float64(len(extra.Ads)) / time.Since(start).Seconds()

	// Deletes: remove half of what was inserted.
	start = time.Now()
	deleted := 0
	for i := 0; i < len(extra.Ads); i += 2 {
		if ix.Delete(extra.Ads[i].ID, extra.Ads[i].Phrase) {
			deleted++
		}
	}
	deleteRate := float64(deleted) / time.Since(start).Seconds()
	fmt.Printf("insert rate: %.0f ads/s   delete rate: %.0f ads/s\n", insertRate, deleteRate)

	// Modeled cost of the drifted layout vs a fresh full optimization,
	// evaluated against a workload over the combined corpus.
	combined := &corpus.Corpus{Ads: ix.Ads()}
	wl2 := workload.Generate(combined, workload.GenOptions{NumQueries: cfg.queries, Seed: cfg.seed + 11})
	gs2 := optimize.BuildGroups(combined.Ads, wl2)

	drifted, _ := optimize.EvaluateLocator(gs2, ix.Locator, optimize.Options{MaxWords: 10})
	start = time.Now()
	fresh := optimize.Optimize(gs2, optimize.Options{MaxWords: 10})
	reoptTime := time.Since(start)

	fmt.Printf("modeled cost: drifted (heuristic inserts) %.4g vs re-optimized %.4g (%.1f%% recovered)\n",
		drifted, fresh.ModeledCost, (1-fresh.ModeledCost/drifted)*100)
	fmt.Printf("periodic re-optimization took %v for %d ads — the cost the paper\n",
		reoptTime.Round(time.Millisecond), combined.NumAds())
	fmt.Printf("amortizes by running it on a separate machine (see cmd/adopt)\n")
}

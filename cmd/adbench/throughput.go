package main

import (
	"fmt"
	"time"

	"adindex/internal/core"
	"adindex/internal/costmodel"
	"adindex/internal/invindex"
	"adindex/internal/workload"
)

// runThroughput regenerates the §VII-A headline comparison: the throughput
// of the hash-based structure versus both inverted-index baselines on the
// same query stream. The paper reports 99x over unmodified inverted
// indexes and >1300x over modified ones (with a 180M-ad corpus; ratios
// grow with corpus size — see fig8).
func runThroughput(cfg config) {
	header("§VII-A: throughput, hash structure vs inverted indexes")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, cfg.queries, cfg.seed+1)
	stream := wl.Stream(cfg.stream, cfg.seed+2)

	ix := core.New(c.Ads, core.Options{})
	unmod := invindex.NewUnmodified(c.Ads)
	mod := invindex.NewModified(c.Ads)

	var sc core.Scratch
	var refs []core.Ref
	coreQPS, coreMatches := timeRun(stream, func(q []string) int {
		refs = ix.AppendBroadRefs(refs[:0], q, nil, &sc, nil)
		return len(refs)
	})
	unmodQPS, unmodMatches := timeRun(stream, func(q []string) int {
		return len(unmod.BroadMatch(q, nil))
	})
	modQPS, modMatches := timeRun(stream, func(q []string) int {
		return len(mod.BroadMatch(q, nil))
	})
	if coreMatches != unmodMatches || coreMatches != modMatches {
		// Expected: the hash structure's extreme-query cutoff
		// (MaxQueryWords) trades a bounded probe count for rare recall
		// loss on very long queries (Section IV-B).
		fmt.Printf("note: heuristic long-query cutoff lost %.4f%% of matches (core=%d, baselines=%d)\n",
			(1-float64(coreMatches)/float64(unmodMatches))*100, coreMatches, unmodMatches)
	}
	// The paper's control: never merge, just touch each posting once.
	scanQPS, _ := timeRun(stream, func(q []string) int {
		return mod.ScanOnly(q, nil)
	})

	fmt.Printf("%-28s %14s %10s\n", "structure", "queries/s", "vs ours")
	fmt.Printf("%-28s %14.0f %10s\n", "hash structure (ours)", coreQPS, "1x")
	fmt.Printf("%-28s %14.0f %9.0fx\n", "unmodified inverted", unmodQPS, coreQPS/unmodQPS)
	fmt.Printf("%-28s %14.0f %9.0fx\n", "modified inverted", modQPS, coreQPS/modQPS)
	fmt.Printf("%-28s %14.0f %9.0fx\n", "modified, scan-only control", scanQPS, coreQPS/scanQPS)
	fmt.Printf("paper (180M ads): unmodified 99x slower, modified >1300x slower\n")
}

func timeRun(stream []*workload.Query, fn func([]string) int) (qps float64, matches int) {
	start := time.Now()
	for _, q := range stream {
		matches += fn(q.Words)
	}
	elapsed := time.Since(start)
	return float64(len(stream)) / elapsed.Seconds(), matches
}

// runKeySize regenerates the §VII-A bucket-size analysis: the average
// number of elements under the most popular keys drops from ~3000
// (single-keyword inverted lists) to ~100 (hash nodes) in the paper.
func runKeySize(cfg config) {
	header("§VII-A: elements per key for the most popular terms")
	c := mkCorpus(cfg.ads, cfg.seed)
	mod := invindex.NewModified(c.Ads)
	ix := core.New(c.Ads, core.Options{})

	invLens := mod.ListLengths()
	nodeSizes := nodeAdCounts(ix)
	topK := 50
	fmt.Printf("%-34s %12s\n", "structure (top-50 keys)", "avg elements")
	fmt.Printf("%-34s %12.0f\n", "inverted index posting lists", avgHead(invLens, topK))
	fmt.Printf("%-34s %12.0f\n", "hash-structure data nodes", avgHead(nodeSizes, topK))
	fmt.Printf("paper: ~3000 -> ~100\n")
}

func nodeAdCounts(ix *core.Index) []int {
	counts := make(map[string]int)
	for _, ad := range ix.Ads() {
		counts[ad.SetKey()]++
	}
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		out = append(out, n)
	}
	sortDesc(out)
	return out
}

func avgHead(sorted []int, k int) float64 {
	if k > len(sorted) {
		k = len(sorted)
	}
	if k == 0 {
		return 0
	}
	sum := 0
	for _, v := range sorted[:k] {
		sum += v
	}
	return float64(sum) / float64(k)
}

func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// runFig8 regenerates Figure 8: the ratio of bytes read by inverted-index
// processing to bytes read by our approach, as the corpus grows. The paper
// shows >=4x at 1M ads for the unmodified variant, rising with corpus
// size, and ~3 orders of magnitude for the modified variant.
func runFig8(cfg config) {
	header("Figure 8: data volume ratio vs corpus size (100K queries)")
	sizes := []int{cfg.ads / 8, cfg.ads / 4, cfg.ads / 2, cfg.ads}
	fmt.Printf("%-12s %16s %16s %16s %12s %12s\n",
		"ads", "ours bytes", "unmod bytes", "mod bytes", "unmod/ours", "mod/ours")
	for _, n := range sizes {
		if n < 1000 {
			continue
		}
		c := mkCorpus(n, cfg.seed)
		wl := mkWorkload(c, cfg.queries, cfg.seed+1)
		stream := wl.Stream(minInt(cfg.stream, 100000), cfg.seed+2)

		ix := core.New(c.Ads, core.Options{})
		unmod := invindex.NewUnmodified(c.Ads)
		mod := invindex.NewModified(c.Ads)

		var cc, cu, cm costmodel.Counters
		for _, q := range stream {
			ix.BroadMatch(q.Words, &cc)
			unmod.BroadMatch(q.Words, &cu)
			mod.BroadMatch(q.Words, &cm)
		}
		fmt.Printf("%-12d %16d %16d %16d %11.1fx %11.1fx\n",
			n, cc.BytesScanned, cu.BytesScanned, cm.BytesScanned,
			float64(cu.BytesScanned)/float64(cc.BytesScanned),
			float64(cm.BytesScanned)/float64(cc.BytesScanned))
	}
	fmt.Printf("paper: unmodified/ours >= 4x at 1M ads and rising; modified ~3 orders of magnitude\n")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

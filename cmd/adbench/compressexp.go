package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"adindex/internal/compress"
	"adindex/internal/core"
	"adindex/internal/costmodel"
	"adindex/internal/hashindex"
	"adindex/internal/optimize"
	"adindex/internal/setcover"
	"adindex/internal/treeindex"
)

// runCompress regenerates the §VI analysis: the hash table replaced by the
// compressed B^sig/B^off bit arrays, with the entropy-bound space ratio
// (the paper's example computes ~9:1 for a 100M-ad corpus at s = 28).
func runCompress(cfg config) {
	header("§VI: compressed lookup structure")
	c := mkCorpus(cfg.ads, cfg.seed)
	base := core.New(c.Ads, core.Options{})

	fmt.Printf("%-8s %10s %12s %14s %14s %12s\n",
		"s", "nodes", "B^sig B", "B^off B", "entropy bits", "vs hashtable")
	var snaps []*hashindex.Index
	var labels []string
	for _, s := range []int{0, 16, 20, 24} {
		ix, err := hashindex.Build(base, hashindex.Options{SuffixBits: s})
		must(err)
		sz := ix.Sizes()
		entropyBytes := (sz.SigEntropyBits + sz.OffEntropyBits) / 8
		label := fmt.Sprintf("%d", sz.SuffixBits)
		if s == 0 {
			label += "*"
		}
		fmt.Printf("%-8s %10d %12d %14d %14.0f %11.1f:1\n",
			label, sz.Nodes, sz.SigBytes, sz.OffBytes,
			sz.SigEntropyBits+sz.OffEntropyBits,
			float64(sz.HashTableBytes)/entropyBytes)
		snaps = append(snaps, ix)
		labels = append(labels, label)
	}
	fmt.Printf("(* = auto-selected)  paper example: 9:1 at 20M nodes, s=28\n")

	// Every width answers a sampled query stream exactly as its base does
	// (the same ID multiset), at the bytes scanned printed beside it.
	stream := mkWorkload(c, cfg.queries, cfg.seed+1).Stream(minInt(cfg.stream, 20000), cfg.seed+3)
	var hashC costmodel.Counters
	want := make([][]uint64, len(stream))
	for i, q := range stream {
		for _, ad := range base.BroadMatch(q.Words, &hashC) {
			want[i] = append(want[i], ad.ID)
		}
		slices.Sort(want[i])
	}
	n := float64(len(stream))
	fmt.Printf("\n%d sampled queries, bytes scanned per query (compressed answers = hash answers):\n", len(stream))
	fmt.Printf("  %-8s %10.0f\n", "hash", float64(hashC.BytesScanned)/n)
	for k, ix := range snaps {
		var cc costmodel.Counters
		for i, q := range stream {
			ads, err := ix.BroadMatch(q.Words, &cc)
			must(err)
			got := make([]uint64, len(ads))
			for j := range ads {
				got[j] = ads[j].ID
			}
			slices.Sort(got)
			if !slices.Equal(got, want[i]) {
				must(fmt.Errorf("s=%s: query %q matched %v, its base %v", labels[k], strings.Join(q.Words, " "), got, want[i]))
			}
		}
		fmt.Printf("  s=%-6s %10.0f\n", labels[k], float64(cc.BytesScanned)/n)
	}

	// Front-coding effect on the node arena.
	raw := base.Stats().NodeBytes
	ix := snaps[0] // the auto-selected width
	fmt.Printf("\nnode arena: raw %d B -> front-coded %d B (%.0f%% of raw)\n",
		raw, ix.ArenaBytes(), float64(ix.ArenaBytes())/float64(raw)*100)

	// Paper's closed-form example: 100M ads, 20M distinct sets, s=28.
	fmt.Printf("\npaper's closed-form example (100M ads, 20M sets, s=28):\n")
	hashBits := 1.7e9
	sig := paperBound(1<<28, 20_000_000)
	off := paperBound(20_000_000*75, 20_000_000)
	fmt.Printf("  size(H) ~ %.1e bits; B^sig <= %.1e + B^off <= %.1e bits; ratio %.0f:1\n",
		hashBits, sig, off, hashBits/(sig+off))
}

func paperBound(n, k int) float64 {
	// k·log2(n/k) + k·log2 e — the Section VI upper bound on n·H_0(B).
	return float64(k)*math.Log2(float64(n)/float64(k)) + float64(k)*math.Log2(math.E)
}

// runAblation benches the design choices DESIGN.md calls out.
func runAblation(cfg config) {
	header("Ablations: max_words sweep, withdrawal, front coding")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, cfg.queries, cfg.seed+1)
	gs := optimize.BuildGroups(c.Ads, wl)

	fmt.Printf("max_words sweep (lookups for a 12-word query vs node count):\n")
	fmt.Printf("%-10s %14s %12s %16s\n", "max_words", "probes@12w", "nodes", "modeled cost")
	for _, mw := range []int{3, 5, 10, 12} {
		res := optimize.Optimize(gs, optimize.Options{MaxWords: mw})
		ix, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{MaxWords: mw, MaxQueryWords: 12})
		must(err)
		fmt.Printf("%-10d %14d %12d %16.0f\n",
			mw, ix.LookupsForQueryLength(12), res.Nodes, res.ModeledCost)
	}

	// Withdrawal-step refinement on random set-cover instances derived
	// from the corpus scale.
	fmt.Printf("\nset-cover greedy vs greedy+withdrawal (synthetic instances):\n")
	improved, total := 0, 0
	var wSum, gSum float64
	for seed := int64(0); seed < 20; seed++ {
		inst := syntheticCoverInstance(200, seed)
		chosen, err := setcover.Greedy(inst)
		if err != nil {
			continue
		}
		refined := setcover.Withdraw(inst, chosen)
		g, w := inst.TotalWeight(chosen), inst.TotalWeight(refined)
		gSum += g
		wSum += w
		total++
		if w < g {
			improved++
		}
	}
	fmt.Printf("  withdrawal improved %d/%d instances; mean weight %.1f -> %.1f\n",
		improved, total, gSum/float64(total), wSum/float64(total))

	// Front coding on/off for the most shared node contents.
	fmt.Printf("\nfront coding (per-node compression ratio across the corpus):\n")
	ratio := compress.Ratio(c.Ads[:minInt(len(c.Ads), 50000)])
	fmt.Printf("  encoded/raw = %.2f\n", ratio)

	// Workload-adapted vs frequency-agnostic optimization.
	adapted := optimize.Optimize(gs, optimize.Options{MaxWords: 10})
	agnostic := optimize.LongPhraseMapping(gs, optimize.Options{MaxWords: 10})
	fmt.Printf("\nworkload adaptation: modeled cost long-only %.0f -> adapted %.0f (%.1f%% better)\n",
		agnostic.ModeledCost, adapted.ModeledCost,
		(1-adapted.ModeledCost/agnostic.ModeledCost)*100)

	// Hash table vs trie lookup structure (the Section III-B alternative):
	// probes for the hash structure are subset enumerations; the trie only
	// walks existing paths, which matters most for long queries.
	hash := core.New(c.Ads, core.Options{})
	tree := treeindex.New(hash)
	stream := wl.Stream(minInt(cfg.stream, 20000), cfg.seed+3)
	var ctree, chash costmodel.Counters
	for _, q := range stream {
		tree.BroadMatch(q.Words, &ctree)
		hash.BroadMatch(q.Words, &chash)
	}
	fmt.Printf("\ntrie vs hash lookup (same workload):\n")
	fmt.Printf("  %-18s %14s %14s\n", "", "probes/query", "randacc/query")
	fmt.Printf("  %-18s %14.1f %14.1f\n", "hash (enumerate)",
		float64(chash.HashProbes)/float64(len(stream)),
		float64(chash.RandomAccesses)/float64(len(stream)))
	fmt.Printf("  %-18s %14.1f %14.1f\n", "trie (walk paths)",
		float64(ctree.HashProbes)/float64(len(stream)),
		float64(ctree.RandomAccesses)/float64(len(stream)))
}

func syntheticCoverInstance(n int, seed int64) *setcover.Instance {
	// Deterministic pseudo-random instance without math/rand ceremony.
	x := uint64(seed)*2654435761 + 12345
	next := func(m int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	inst := &setcover.Instance{NumElements: n}
	for e := 0; e < n; e++ {
		inst.Sets = append(inst.Sets, setcover.Set{ID: e, Elements: []int{e},
			Weight: 1 + float64(next(100))/25})
	}
	for i := 0; i < n; i++ {
		size := 2 + next(4)
		elems := make([]int, size)
		for j := range elems {
			elems[j] = next(n)
		}
		inst.Sets = append(inst.Sets, setcover.Set{ID: n + i, Elements: elems,
			Weight: 1.5 + float64(next(100))/20})
	}
	return inst
}

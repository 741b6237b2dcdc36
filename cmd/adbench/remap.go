package main

import (
	"fmt"
	"runtime"
	"time"

	"adindex/internal/core"
	"adindex/internal/costmodel"
	"adindex/internal/memsim"
	"adindex/internal/optimize"
)

// runFig10 regenerates Figure 10: the relative time to process a skewed
// query workload under (a) no re-mapping (every subset of every query is
// enumerated), (b) re-mapping of long phrases only (max_words = 10, as in
// the paper), and (c) full workload-adapted re-mapping. The paper shows
// (b) a large win over (a) and (c) roughly a further 10% over (b).
func runFig10(cfg config) {
	header("Figure 10: re-mapping variants on a skewed workload")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, minInt(cfg.queries*5, 500000), cfg.seed+1)
	stream := wl.Stream(cfg.stream, cfg.seed+2)

	gs := optimize.BuildGroups(c.Ads, wl)
	long := optimize.LongPhraseMapping(gs, optimize.Options{MaxWords: 10})
	full := optimize.Optimize(gs, optimize.Options{MaxWords: 10})

	// (a) no re-mapping: locators are the full word sets, so the subset
	// enumeration cannot be bounded by max_words. Every variant walks
	// every query word, so they return identical results.
	noRemap := core.New(c.Ads, core.Options{MaxWords: 16})
	longIx, err := core.NewWithMapping(c.Ads, long.Mapping, core.Options{MaxWords: 10})
	must(err)
	fullIx, err := core.NewWithMapping(c.Ads, full.Mapping, core.Options{MaxWords: 10})
	must(err)

	type variant struct {
		name string
		ix   *core.Index
	}
	variants := []variant{
		{"(a) no re-mapping", noRemap},
		{"(b) long phrases only", longIx},
		{"(c) full re-mapping", fullIx},
	}
	// Alternate variants over several rounds and keep the best time per
	// variant: long-lived processes accumulate heap, and GC pauses would
	// otherwise dominate a single measurement.
	times := make([]time.Duration, len(variants))
	counters := make([]costmodel.Counters, len(variants))
	var matchCounts [3]int64
	for i := range times {
		times[i] = time.Duration(1<<63 - 1)
	}
	var sc core.Scratch
	var refs []core.Ref
	for round := 0; round < 3; round++ {
		for i, v := range variants {
			runtime.GC()
			for _, q := range stream[:minInt(len(stream), 5000)] {
				refs = v.ix.AppendBroadRefs(refs[:0], q.Words, nil, &sc, nil)
			}
			var cc costmodel.Counters
			start := time.Now()
			for _, q := range stream {
				refs = v.ix.AppendBroadRefs(refs[:0], q.Words, &cc, &sc, nil)
			}
			if d := time.Since(start); d < times[i] {
				times[i] = d
			}
			counters[i] = cc
			matchCounts[i] = cc.Matches
		}
	}
	if matchCounts[0] != matchCounts[1] || matchCounts[0] != matchCounts[2] {
		fmt.Printf("WARNING: match counts differ across variants: %v\n", matchCounts)
	}
	model := costmodel.Default()
	fmt.Printf("%-26s %10s %10s %12s %12s %14s %10s\n",
		"variant", "time", "nodes", "probes/q", "nodevisit/q", "modeled cost", "relative")
	for i, v := range variants {
		n := float64(len(stream))
		fmt.Printf("%-26s %10v %10d %12.1f %12.2f %14.3g %9.2fx\n",
			v.name, times[i].Round(time.Millisecond), v.ix.NumNodes(),
			float64(counters[i].HashProbes)/n, float64(counters[i].NodesVisited)/n,
			counters[i].Cost(model),
			counters[i].Cost(model)/counters[len(variants)-1].Cost(model))
	}
	fmt.Printf("paper: (b) >> (a) in wall time; (c) ~10%% better than (b).\n")
	fmt.Printf("note: at synthetic scale the win shows in modeled cost and node visits;\n")
	fmt.Printf("      wall-clock follows at corpus sizes where H outgrows the caches (see EXPERIMENTS.md)\n")
}

// runCounters regenerates the §VII-C hardware-counter analysis via the
// memory simulator: replaying the same probe sequence against the
// re-mapped and non-re-mapped layouts.
func runCounters(cfg config) {
	header("§VII-C: simulated hardware counters (VTune substitute)")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, cfg.queries, cfg.seed+1)
	stream := wl.Stream(minInt(cfg.stream, 20000), cfg.seed+2)

	gs := optimize.BuildGroups(c.Ads, wl)
	identity := optimize.IdentityMapping(gs, optimize.Options{MaxWords: 10})
	full := optimize.Optimize(gs, optimize.Options{MaxWords: 10})

	run := func(mapping map[string][]string) memsim.Stats {
		ix, err := core.NewWithMapping(c.Ads, mapping, core.Options{MaxWords: 10, MaxQueryWords: 12})
		must(err)
		layout := memsim.BuildLayout(ix)
		sim := memsim.New(memsim.Config{TLBEntries: 64, CacheSets: 1024, CacheWays: 8})
		for _, q := range stream {
			layout.ReplayQuery(sim, q.Words)
		}
		return sim.Stats()
	}
	noRemap := run(identity.Mapping)
	remap := run(full.Mapping)

	fmt.Printf("%-26s %16s %16s %10s\n", "counter", "no re-mapping", "full re-mapping", "delta")
	row := func(name string, a, b int64) {
		delta := "n/a"
		if b != 0 {
			delta = fmt.Sprintf("%+.0f%%", (float64(a)/float64(b)-1)*100)
		}
		fmt.Printf("%-26s %16d %16d %10s\n", name, a, b, delta)
	}
	row("DTLB misses", noRemap.TLBMisses, remap.TLBMisses)
	row("page-walk cycles", noRemap.PageWalkCycles, remap.PageWalkCycles)
	row("cache misses", noRemap.CacheMisses, remap.CacheMisses)
	row("branches", noRemap.Branches, remap.Branches)
	row("branch mispredicts", noRemap.BranchMispredicts, remap.BranchMispredicts)
	fmt.Printf("paper: page walks +40%% and DTLB misses +12%% without re-mapping;\n")
	fmt.Printf("       cache misses higher without re-mapping; mispredicts +23%% WITH re-mapping\n")
}

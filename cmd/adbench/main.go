// adbench regenerates every table and figure of the paper's evaluation
// (Section VII) plus the distribution figures of the introduction, on
// synthetic corpora with the documented distributional properties.
//
// Usage:
//
//	adbench -experiment all
//	adbench -experiment fig8 -ads 1000000 -queries 100000
//
// Experiments (see DESIGN.md §4 for the paper mapping):
//
//	fig1         bid-length distribution
//	fig2         ads-per-word-set long tail
//	fig3         MT rule lengths vs bid lengths
//	fig7         keyword vs word-set frequency skew
//	tput         §VII-A throughput: ours vs both inverted baselines
//	keysize      §VII-A elements-per-key for popular terms
//	fig8         data volume ratio vs corpus size
//	fig9         §VII-B two-server latency distribution and throughput
//	fig10        re-mapping variants: none / long-only / full
//	counters     §VII-C simulated hardware counters
//	compress     §VI compressed lookup structure sizes
//	ablation     design-choice sweeps (max_words, withdrawal, front coding)
//	maintenance  §VI insert/delete drift and re-optimization
//
// End-to-end serving performance is not measured here: that is bench/
// (see BENCHMARK.json), which drives the real adserve.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

type config struct {
	ads     int
	queries int
	seed    int64
	stream  int
}

func main() {
	experiment := flag.String("experiment", "all", "experiment id or 'all'")
	ads := flag.Int("ads", 200000, "corpus size")
	queries := flag.Int("queries", 20000, "distinct workload queries")
	stream := flag.Int("stream", 100000, "query stream length for timed runs")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Usage = usage
	flag.Parse()

	// The harness keeps several corpora and indexes alive at once; a
	// higher GC target keeps collector pauses out of the timed sections.
	debug.SetGCPercent(400)

	cfg := config{ads: *ads, queries: *queries, seed: *seed, stream: *stream}
	ran := false
	for _, e := range experiments {
		if *experiment == "all" || *experiment == e.id {
			e.run(cfg)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// experiments is the one registry: `-experiment all` runs it in order,
// the usage text lists it, and TestDocListsExperiments holds the package
// comment to it.
var experiments = []struct {
	id, what string
	run      func(config)
}{
	{"fig1", "bid-length distribution", runFig1},
	{"fig2", "ads-per-word-set long tail", runFig2},
	{"fig3", "MT rule lengths vs bid lengths", runFig3},
	{"fig7", "keyword vs word-set frequency skew", runFig7},
	{"tput", "§VII-A throughput: ours vs both inverted baselines", runThroughput},
	{"keysize", "§VII-A elements-per-key for popular terms", runKeySize},
	{"fig8", "data volume ratio vs corpus size", runFig8},
	{"fig9", "§VII-B two-server latency distribution and throughput", runFig9},
	{"fig10", "re-mapping variants: none / long-only / full", runFig10},
	{"counters", "§VII-C simulated hardware counters", runCounters},
	{"compress", "§VI compressed lookup structure sizes", runCompress},
	{"ablation", "design-choice sweeps (max_words, withdrawal, front coding)", runAblation},
	{"maintenance", "§VI insert/delete drift and re-optimization", runMaintenance},
}

// usage prints the flags and the experiment table.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: adbench [flags]")
	flag.PrintDefaults()
	fmt.Fprintln(w, "experiments (-experiment all runs them in this order):")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-12s %s\n", e.id, e.what)
	}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// mkCorpus builds the experiment corpus (cached per size+seed within one
// process run).
var corpusCache = map[string]*corpus.Corpus{}

func mkCorpus(n int, seed int64) *corpus.Corpus {
	key := fmt.Sprintf("%d/%d", n, seed)
	if c, ok := corpusCache[key]; ok {
		return c
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: n, Seed: seed})
	corpusCache[key] = c
	return c
}

var workloadCache = map[string]*workload.Workload{}

func mkWorkload(c *corpus.Corpus, n int, seed int64) *workload.Workload {
	key := fmt.Sprintf("%p/%d/%d", c, n, seed)
	if wl, ok := workloadCache[key]; ok {
		return wl
	}
	wl := workload.Generate(c, workload.GenOptions{NumQueries: n, Seed: seed})
	workloadCache[key] = wl
	return wl
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

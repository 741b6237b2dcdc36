// Command bench is the adserve end-to-end benchmark: it builds
// cmd/adserve, generates a corpus and query streams from -seed, starts
// the real binary on a free loopback port, drives it over HTTP from two
// keep-alive connections (closed loop, then open loop at a fixed rate,
// every fifth request a probe of /healthz that gauges the box), checks
// the answers against a brute-force oracle, and prints every metric by
// name with its unit. With -trace 1 it also replays the same
// queries through each layer in-process and attributes the time. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root (holds cmd/adserve and bench/)")
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(specNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the corpus, the query streams and the write sequence")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload: three fifths closed loop, two fifths open loop")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "quick self-check: 5k ads, 1 s phases, 64 oracle queries")
	out := fs.String("out", "", "record file to append to (default <root>/bench/out/runs.json)")
	compare := fs.Bool("compare", false, "compare two record files: bench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if sp, ok := findSpec(*workload); ok {
		todo = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *workload, strings.Join(specNames(), ", "))
		return 2
	}

	// SIGINT/SIGTERM cancel the context; every server is stopped and every
	// temporary directory removed by the deferred calls on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	outDir := filepath.Join(*root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The driver's line carries exactly the metrics BENCHMARK.json names
	// for this kind of run; the record and the printed list carry them all.
	bf, err := readBenchmarkFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	driverMetrics := bf.EndToEnd
	if *traced == 1 {
		driverMetrics = bf.PerLayer
	}
	bin, err := buildAdserve(ctx, *root, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := runConfig{outDir: outDir, bin: bin, seed: *seed, seconds: *seconds,
		traced: *traced == 1, replay: oracleSize, sample: sampleSize}
	if *smoke {
		cfg.ads, cfg.seconds, cfg.replay, cfg.sample = smokeAds, 2, 64, 2000
	}
	if *out == "" {
		*out = filepath.Join(outDir, "runs.json")
	}
	rec := &record{Schema: schemaName, Env: readEnvironment(*root), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	for _, sp := range todo {
		wr, err := runWorkload(ctx, sp, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sp.Name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, *wr)
		report(wr, driverMetrics)
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// result is the line the benchmark driver reads: the last line of
// standard output for a workload.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report prints one workload's outcome — every metric by name with its
// unit, the phase counts, validity — and ends with the driver's JSON
// line, which holds the metrics named in defs.
func report(wr *workloadRecord, defs []metricDef) {
	fmt.Printf("== %s\n", wr.Name)
	for _, p := range wr.Phases {
		fmt.Printf("   phase %-14s %7.2f s  sent %-7d ok %-7d failed %d\n", p.Name, p.Seconds, p.Sent, p.Succeeded, p.Failed)
	}
	fmt.Printf("   oracle: %d checked, %d mismatches\n", wr.Oracle.Checked, wr.Oracle.Mismatches)
	for _, m := range wr.Oracle.First {
		fmt.Printf("   MISMATCH %s\n", m)
	}
	printMetrics("   ", wr.Metrics)
	printMetrics("   (detail) ", wr.Detail)
	for _, v := range wr.Validity {
		verdict := "ok"
		if !v.OK {
			verdict = "INVALID"
		}
		fmt.Printf("   validity: %-58s %10.4f  %s\n", v.Rule, v.Value, verdict)
	}
	if wr.Trace != "" {
		fmt.Printf("   trace: %s\n", wr.Trace)
	}
	line, _ := json.Marshal(driverResult(wr, defs)) // numbers and strings only: cannot fail
	fmt.Printf("%s\n", line)
}

// driverResult picks the metrics named in defs out of a workload's run.
func driverResult(wr *workloadRecord, defs []metricDef) result {
	res := result{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: metrics{}}
	for _, d := range defs {
		res.Metrics[d.Name] = wr.Metrics[d.Name]
	}
	return res
}

func printMetrics(prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s%-36s %14.4f %s\n", prefix, name, m[name].Value, m[name].Unit)
	}
}

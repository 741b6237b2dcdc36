package main

// perf: the broad-match read path through the public API — pooled
// scratch, atomic snapshot load, columnar signature sweep, arena result
// copies — as a fresh copy per call, as an append into a reused buffer,
// and through the batch entry point that sorts probes by bucket. All run
// in the same process on the same corpus and query stream. Results are
// printed as a table and written as JSON (default BENCH_PR8.json, see
// -out); cmd/benchgate matches variants by name, so a recording gates
// against any earlier one that has the same variants.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
)

var perfOut = flag.String("out", "BENCH_PR8.json", "JSON output path for the perf experiment")

type perfVariant struct {
	Name        string  `json:"name"`
	SerialQPS   float64 `json:"serial_qps"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
	ParallelQPS float64 `json:"parallel_qps"`
	ChurnQPS    float64 `json:"parallel_churn_qps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type perfReport struct {
	Ads           int         `json:"ads"`
	Queries       int         `json:"distinct_queries"`
	Stream        int         `json:"stream_length"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	After         perfVariant `json:"after"`
	AfterAppend   perfVariant `json:"after_append"`
	AfterBatch    perfVariant `json:"after_batch"`
	AppendSpeedup float64     `json:"append_speedup"`
	BatchSpeedup  float64     `json:"batch_speedup"`
}

func runPerf(cfg config) {
	header("perf: snapshot read path — copy, append, batch")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, cfg.queries, cfg.seed+1)
	stream := wl.Stream(cfg.stream, cfg.seed+2)
	queries := make([]string, len(stream))
	for i, q := range stream {
		queries[i] = strings.Join(q.Words, " ")
	}

	snap := adindex.Build(c.Ads, adindex.Options{})

	mkAfter := func() func(string) {
		return func(q string) { snap.BroadMatch(q) }
	}
	mkAppend := func() func(string) {
		var dst []adindex.Ad
		return func(q string) { dst = snap.Match(dst[:0], adindex.Query{Text: q}).Ads }
	}
	sweep := func(call func(string)) func() {
		return func() {
			for _, q := range queries {
				call(q)
			}
		}
	}
	serial := interleavedSerialQPS([]func(){
		sweep(mkAfter()),
		sweep(mkAppend()),
		func() {
			for off := 0; off < len(queries); off += perfBatchSize {
				end := off + perfBatchSize
				if end > len(queries) {
					end = len(queries)
				}
				snap.BroadMatchBatch(queries[off:end])
			}
		},
	}, len(queries))

	after := measurePerf("snapshot", queries, serial[0], mkAfter, snap)
	afterAppend := measurePerf("snapshot-append", queries, serial[1], mkAppend, snap)
	afterBatch := measureBatch("snapshot-batch", queries, serial[2], snap)

	rep := perfReport{
		Ads:           cfg.ads,
		Queries:       cfg.queries,
		Stream:        len(queries),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		After:         after,
		AfterAppend:   afterAppend,
		AfterBatch:    afterBatch,
		AppendSpeedup: afterAppend.SerialQPS / after.SerialQPS,
		BatchSpeedup:  afterBatch.SerialQPS / after.SerialQPS,
	}

	fmt.Printf("%-18s %12s %9s %9s %12s %12s %10s\n",
		"variant", "serial qps", "p50 us", "p99 us", "par qps", "churn qps", "allocs/op")
	for _, v := range []perfVariant{after, afterAppend, afterBatch} {
		fmt.Printf("%-18s %12.0f %9.2f %9.2f %12.0f %12.0f %10.1f\n",
			v.Name, v.SerialQPS, v.P50US, v.P99US, v.ParallelQPS, v.ChurnQPS, v.AllocsPerOp)
	}
	fmt.Printf("append speedup: %.2fx  batch speedup: %.2fx (vs snapshot)\n",
		rep.AppendSpeedup, rep.BatchSpeedup)

	buf, err := json.MarshalIndent(rep, "", "  ")
	must(err)
	must(os.WriteFile(*perfOut, append(buf, '\n'), 0o644))
	fmt.Printf("wrote %s\n", *perfOut)
}

// measurePerf times one read-path variant; its serial QPS comes from the
// shared interleaved measurement. makeCall returns a fresh, independently
// buffered query closure; parallel measurements give each worker its own
// so buffer-reusing variants stay race-free.
func measurePerf(name string, queries []string, serialQPS float64, makeCall func() func(string), mut *adindex.Index) perfVariant {
	call := makeCall()
	v := perfVariant{Name: name, SerialQPS: serialQPS}

	// Separate latency pass for percentiles.
	lat := make([]time.Duration, len(queries))
	for i, q := range queries {
		t0 := time.Now()
		call(q)
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	v.P50US = float64(lat[len(lat)/2].Nanoseconds()) / 1e3
	v.P99US = float64(lat[len(lat)*99/100].Nanoseconds()) / 1e3

	v.ParallelQPS = parallelQPS(queries, makeCall, nil)
	v.ChurnQPS = parallelQPS(queries, makeCall, mut)

	i := 0
	v.AllocsPerOp = testing.AllocsPerRun(2000, func() {
		call(queries[i%len(queries)])
		i++
	})
	return v
}

// interleavedSerialQPS times each variant's full-stream pass (no
// per-query timers, so measurement never taxes the path it measures) in
// round-robin rounds — A,B,C,D, A,B,C,D, … — and reports each variant's
// best round. Consecutive per-variant passes let slow machine drift
// (turbo states, noisy neighbors) land entirely on whichever variant runs
// at the wrong moment and skew the before/after ratio; round-robin
// spreads any drift across all variants. Garbage is collected at each
// variant switch so no variant is charged for a predecessor's
// allocations, while GC triggered inside a pass — a variant's own
// steady-state collector tax — stays in the measurement.
func interleavedSerialQPS(passes []func(), n int) []float64 {
	const rounds = 4
	best := make([]float64, len(passes))
	for r := 0; r < rounds; r++ {
		for i, fn := range passes {
			runtime.GC()
			start := time.Now()
			fn()
			if qps := float64(n) / time.Since(start).Seconds(); qps > best[i] {
				best[i] = qps
			}
		}
	}
	return best
}

// perfBatchSize mirrors the block size a /search/batch request carries in
// the server smoke tests: big enough for the bucket sort to pay off,
// small enough for realistic request framing.
const perfBatchSize = 64

// measureBatch times the batch entry point over fixed-size query blocks.
// QPS and latency are per query (block latency divided across its
// queries), so the numbers compare directly with the per-call variants.
func measureBatch(name string, queries []string, serialQPS float64, snap *adindex.Index) perfVariant {
	v := perfVariant{Name: name, SerialQPS: serialQPS}
	blocks := func(qs []string, fn func([]string) time.Duration) (time.Duration, []time.Duration) {
		var total time.Duration
		var lat []time.Duration
		for off := 0; off < len(qs); off += perfBatchSize {
			end := off + perfBatchSize
			if end > len(qs) {
				end = len(qs)
			}
			d := fn(qs[off:end])
			total += d
			per := d / time.Duration(end-off)
			for i := off; i < end; i++ {
				lat = append(lat, per)
			}
		}
		return total, lat
	}

	run := func(qs []string) time.Duration {
		t0 := time.Now()
		snap.BroadMatchBatch(qs)
		return time.Since(t0)
	}
	_, lat := blocks(queries, run)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	v.P50US = float64(lat[len(lat)/2].Nanoseconds()) / 1e3
	v.P99US = float64(lat[len(lat)*99/100].Nanoseconds()) / 1e3

	batchCall := func() func(string) {
		buf := make([]string, 0, perfBatchSize)
		return func(q string) {
			buf = append(buf, q)
			if len(buf) == perfBatchSize {
				snap.BroadMatchBatch(buf)
				buf = buf[:0]
			}
		}
	}
	v.ParallelQPS = parallelQPS(queries, batchCall, nil)
	v.ChurnQPS = parallelQPS(queries, batchCall, snap)

	block := queries[:perfBatchSize]
	allocs := testing.AllocsPerRun(200, func() { snap.BroadMatchBatch(block) })
	// Per query, like the other variants.
	v.AllocsPerOp = allocs / perfBatchSize
	return v
}

// parallelQPS drives the full stream across GOMAXPROCS workers; when mut
// is non-nil a mutator goroutine churns inserts and deletes throughout.
func parallelQPS(queries []string, makeCall func() func(string), mut *adindex.Index) float64 {
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 {
		workers-- // leave a core for the mutator / runtime
	}
	var stop atomic.Bool
	var wgMut sync.WaitGroup
	if mut != nil {
		wgMut.Add(1)
		go func() {
			defer wgMut.Done()
			// A steady ~8k mutations/s, a heavy but realistic update rate;
			// an unthrottled loop would measure mutator saturation, not
			// reader throughput under churn.
			tick := time.NewTicker(250 * time.Microsecond)
			defer tick.Stop()
			for i := uint64(0); !stop.Load(); i++ {
				phrase := fmt.Sprintf("perf churn phrase %d", i%64)
				mut.Insert(corpus.NewAd(5_000_000+i%64, phrase, corpus.Meta{}))
				mut.Delete(5_000_000+i%64, phrase)
				<-tick.C
			}
		}()
	}
	per := len(queries) / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			call := makeCall()
			for _, q := range part {
				call(q)
			}
		}(queries[w*per : (w+1)*per])
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wgMut.Wait()
	return float64(per*workers) / elapsed.Seconds()
}

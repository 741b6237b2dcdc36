package main

import (
	"fmt"
	"time"

	"adindex/internal/core"
	"adindex/internal/invindex"
	"adindex/internal/multiserver"
)

// runFig9 regenerates the §VII-B two-server experiment and Figure 9: index
// and ad metadata on separate TCP servers with injected network latency;
// closed-loop clients measure the end-to-end latency distribution (5 ms
// buckets), throughput, and the index server's busy fraction (the paper's
// CPU-utilization comparison: 98% -> 42%, 2274 -> 5775 req/s, 32% -> 75%
// of requests within 10 ms).
func runFig9(cfg config) {
	header("§VII-B / Figure 9: two-server deployment")
	c := mkCorpus(cfg.ads, cfg.seed)
	wl := mkWorkload(c, cfg.queries, cfg.seed+1)
	stream := wl.Stream(minInt(cfg.stream, 4000), cfg.seed+2)

	// Enough closed-loop clients that the offered load exceeds the
	// CPU-limited inverted backend's capacity (the paper drives the
	// arrival rate up until throughput stops increasing): the baseline
	// saturates and its latency distribution spreads out, while the hash
	// structure still clears the same load easily.
	latency := 1 * time.Millisecond
	concurrency := 64

	run := func(name string, backend multiserver.Backend) *multiserver.LoadResult {
		// The index server is CPU-limited (MaxConcurrent 1), matching the
		// paper's saturated index server.
		indexSrv, err := multiserver.NewIndexServer("127.0.0.1:0",
			multiserver.ServeOpts{Latency: latency, MaxConcurrent: 1}, backend)
		must(err)
		defer indexSrv.Close()
		adSrv, err := multiserver.NewAdServer("127.0.0.1:0",
			multiserver.ServeOpts{Latency: latency}, c.Ads)
		must(err)
		defer adSrv.Close()
		// Warmup: populate OS socket buffers, server goroutines, and CPU
		// caches before the measured run.
		if _, err := multiserver.RunLoad(indexSrv, adSrv.Addr(),
			stream[:minInt(len(stream), 500)], concurrency, indexSrv.Addr()); err != nil {
			must(err)
		}
		indexSrv.ResetStats()
		res, err := multiserver.RunLoad(indexSrv, adSrv.Addr(), stream, concurrency, indexSrv.Addr())
		must(err)
		fmt.Printf("%-24s %8.0f req/s   busy %.0f%%   mean %v   <=10ms %.0f%%\n",
			name, res.Throughput, res.IndexBusyFraction*100,
			res.MeanLatency.Round(100*time.Microsecond),
			res.FractionWithin(10*time.Millisecond)*100)
		return res
	}

	fmt.Printf("injected wire latency %v per hop, %d closed-loop clients, %d requests\n\n",
		latency, concurrency, len(stream))
	coreRes := run("hash structure (ours)", multiserver.CoreBackend{Index: core.New(c.Ads, core.Options{})})
	invRes := run("unmodified inverted", invertedBackend(invindex.NewUnmodified(c.Ads)))

	fmt.Printf("\nlatency distribution (5 ms buckets):\n")
	fmt.Printf("%-12s %12s %12s\n", "bucket", "ours", "inverted")
	buckets := len(coreRes.Buckets)
	if len(invRes.Buckets) > buckets {
		buckets = len(invRes.Buckets)
	}
	for b := 0; b < buckets && b < 12; b++ {
		fmt.Printf("%3d-%3dms %11.1f%% %11.1f%%\n",
			b*multiserver.LatencyBucketMillis, (b+1)*multiserver.LatencyBucketMillis,
			bucketPct(coreRes, b), bucketPct(invRes, b))
	}
	// The paper reports each structure's maximum sustained rate; the
	// robust analogue here is the index server's saturation capacity,
	// throughput divided by busy fraction.
	fmt.Printf("\nestimated index-server capacity (tput/busy):\n")
	fmt.Printf("  ours %.0f req/s vs inverted %.0f req/s (%.1fx; paper: 5775 vs 2274 = 2.5x)\n",
		capacity(coreRes), capacity(invRes), capacity(coreRes)/capacity(invRes))
	fmt.Printf("paper: req/s 2274 -> 5775; CPU 98%% -> 42%%; within 10 ms 32%% -> 75%%\n")
}

// invertedBackend serves from the unmodified (non-redundant) inverted
// index — the faster of the two baselines, as in the paper's experiment.
func invertedBackend(index *invindex.Unmodified) multiserver.Backend {
	return multiserver.BackendFunc(func(dst []byte, req multiserver.Request) ([]byte, error) {
		return multiserver.AppendAdIDs(dst, index.BroadMatchText(req.Query, nil), 0), nil
	})
}

func capacity(r *multiserver.LoadResult) float64 {
	if r.IndexBusyFraction <= 0 {
		return 0
	}
	return r.Throughput / r.IndexBusyFraction
}

func bucketPct(r *multiserver.LoadResult, b int) float64 {
	if b >= len(r.Buckets) || r.Requests == 0 {
		return 0
	}
	return float64(r.Buckets[b]) / float64(r.Requests) * 100
}

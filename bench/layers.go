package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"time"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/server"
	"adindex/internal/shard"
	"adindex/internal/textnorm"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// Chain parents by deployment: which layer's span encloses which. A
// local adserve answers from an adindex.Index; a remote one fans out
// through shard.NetClient to multiserver backends serving bare
// core.Index shards.
var (
	localParents = map[string]string{
		"textnorm.wordset": "adindex.match",
		"core.match":       "adindex.match",
		"adindex.match":    "server.handler",
		"server.handler":   "http.request",
	}
	remoteParents = map[string]string{
		"textnorm.wordset":      "multiserver.exchange",
		"core.match":            "multiserver.exchange",
		"multiserver.exchange":  "shard.query",
		"multiserver.fetchmeta": "shard.query",
		"shard.query":           "server.handler",
		"server.handler":        "http.request",
	}
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the nearest-rank p-quantile of ds (in any order).
func quantile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentile(sorted, p)
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// runLayers replays the first n queries of the workload's stream through each
// layer's public entry point, one full pass per layer so no pass runs on
// cache lines the previous layer just warmed, and records a span around
// every call. It builds its own copies of the index structures from the
// same corpus the spawned server was given.
func runLayers(in *inputs, n int, tr *trace, workDir string, out metrics) error {
	queries := make([]string, n)
	for i := range queries {
		queries[i] = in.query(i)
	}
	parents := localParents
	if in.spec.Remote {
		parents = remoteParents
	}
	// pass times fn(i) for the first count sample queries under one layer
	// name and returns the durations in query order.
	pass := func(name string, count int, fn func(i int)) []time.Duration {
		// Start every pass from a collected heap: the structures built just
		// before it would otherwise have the collector running beside the
		// timed calls.
		runtime.GC()
		ds := make([]time.Duration, count)
		for i := range ds {
			start := time.Now()
			fn(i)
			end := time.Now()
			tr.add(name, parents[name], int32(i), start, end)
			ds[i] = end.Sub(start)
		}
		return ds
	}
	ads := in.corpus.Ads
	quiet := log.New(io.Discard, "", 0)

	// textnorm: query text → canonical word set.
	words := make([][]string, n)
	var buf []string
	wordset := pass("textnorm.wordset", n, func(i int) {
		buf = textnorm.AppendWordSet(buf[:0], queries[i])
	})
	for i := range words {
		words[i] = textnorm.WordSet(queries[i])
	}
	out.set("textnorm.wordset_us", us(median(wordset)), "us")

	// core: subset enumeration + node scan on the bare index.
	start := time.Now()
	cix := core.New(ads, core.Options{})
	build := time.Since(start)
	out.set("core.build_s", build.Seconds(), "s")
	st := cix.Stats()
	out.set("core.bytes_per_ad", float64(st.NodeBytes)/float64(max(st.NumAds, 1)), "B")
	var sc core.Scratch
	var dst []*corpus.Ad
	coreMatch := pass("core.match", n, func(i int) {
		dst = cix.AppendBroadMatch(dst[:0], words[i], nil, &sc)
	})
	out.set("core.match_us", us(median(coreMatch)), "us")
	out.set("core.match_p99_us", us(quantile(coreMatch, 0.99)), "us")
	// Counters come from a separate untimed pass: they are exact for a
	// seed, and counting would otherwise sit inside the timed call.
	var c costmodel.Counters
	idLists := make([][]uint64, n)
	for i := range words {
		dst = cix.AppendBroadMatch(dst[:0], words[i], &c, &sc)
		ids := make([]uint64, len(dst))
		for j, ad := range dst {
			ids[j] = ad.ID
		}
		idLists[i] = ids
	}
	fn := float64(n)
	out.set("core.probes_per_query", float64(c.HashProbes)/fn, "count")
	out.set("core.nodes_per_query", float64(c.NodesVisited)/fn, "count")
	out.set("core.bytes_scanned_per_query", float64(c.BytesScanned)/fn, "B")
	out.set("core.sig_reject_ratio", ratio(float64(c.SignatureRejects), float64(c.SignatureChecks)), "ratio")
	out.set("core.phrases_checked_per_match", ratio(float64(c.PhrasesChecked), float64(c.Matches)), "ratio")

	// multiserver: one frame exchange against a backend serving the same
	// bare index, the metadata fetch, and the ID codec on its own.
	exchangeMean, fetchMean, err := multiserverPasses(pass, cix, ads, queries, idLists, out)
	if err != nil {
		return err
	}
	coreMean, wordsetMean := mean(coreMatch), mean(wordset)
	out.set("multiserver.self_us", us(exchangeMean-coreMean-wordsetMean), "us")
	cix = nil

	// shard: routed fan-out over a two-shard elastic cluster, and (for a
	// remote deployment) the HTTP handler in front of it.
	queryMean, remoteHandlerMean, err := shardPasses(pass, in, queries, quiet, out)
	if err != nil {
		return err
	}
	out.set("shard.self_us", us(queryMean-exchangeMean-fetchMean), "us")

	// adindex: snapshot load, overlay and tombstone filtering, deep
	// copy-out, on top of the core match.
	ix := adindex.Build(ads, adindex.Options{})
	view := ix.View()
	var adsDst []adindex.Ad
	before := mallocs()
	adMatch := pass("adindex.match", n, func(i int) {
		adsDst = view.BroadMatchAppend(adsDst[:0], queries[i])
	})
	out.set("adindex.allocs_per_query", float64(mallocs()-before)/fn, "count")
	out.set("adindex.match_us", us(median(adMatch)), "us")
	adMean := mean(adMatch)
	out.set("adindex.self_us", us(adMean-coreMean-wordsetMean), "us")

	// server: the local handler on the stream as it comes (first sight of
	// a query misses the cache, a repeat hits), then a replay of its head
	// so every request hits.
	handlerName := "server.handler"
	if in.spec.Remote {
		handlerName = "server.local_handler" // off this deployment's chain
	}
	srv := server.New(ix, server.Config{Logger: quiet})
	if in.spec.Hot {
		// The spawned server met these queries with a cache the warm-up and
		// closed loop had filled; fill this one from the same stretch of
		// the stream, untimed.
		for i := n; i < min(n+50_000, len(in.order)); i++ {
			srv.Handler().ServeHTTP(httptest.NewRecorder(), searchHTTPRequest(in.query(i)))
		}
	}
	all, miss, cached := handlerPass(pass, handlerName, srv.Handler(), queries)
	tr.unlink("adindex.match", func(req int32) bool { return cached[req] })
	replay := queries[:min(n, 4096)]
	hit, _, _ := handlerPass(pass, "server.handler_replay", srv.Handler(), replay)
	if in.spec.Remote {
		out.set("server.self_us", us(remoteHandlerMean-queryMean), "us")
	} else {
		out.set("server.handler_us", us(median(miss)), "us")
		// Self time over the replies that reached the index: a cache hit has
		// no adindex.match inside it to subtract.
		var self []time.Duration
		for i, d := range all {
			if !cached[i] {
				self = append(self, d-adMatch[i])
			}
		}
		out.set("server.self_us", us(mean(self)), "us")
	}
	out.set("server.handler_hit_us", us(median(hit)), "us")
	cacheGetPass(pass, view, queries[:len(replay)], words, out)

	// Writes: matching through a pending overlay, the overlay insert, the
	// fold, and what the WAL adds to an insert.
	return writePasses(pass, in, ix, build, queries, workDir, out)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type passFunc func(name string, count int, fn func(i int)) []time.Duration

// multiserverPasses returns the mean exchange and metadata-fetch times.
func multiserverPasses(pass passFunc, cix *core.Index, ads []corpus.Ad, queries []string, idLists [][]uint64, out metrics) (exchangeMean, fetchMean time.Duration, err error) {
	ixSrv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, multiserver.CoreBackend{Index: cix})
	if err != nil {
		return 0, 0, fmt.Errorf("in-process index server: %w", err)
	}
	defer ixSrv.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		return 0, 0, fmt.Errorf("in-process ad server: %w", err)
	}
	defer adSrv.Close()
	cl, err := multiserver.Dial(ixSrv.Addr(), adSrv.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n := len(queries)
	before := mallocs()
	exchange := pass("multiserver.exchange", n, func(i int) {
		_, err := cl.IndexConn().Exchange([]byte(queries[i]))
		note(err)
	})
	out.set("multiserver.allocs_per_exchange", float64(mallocs()-before)/float64(n), "count")
	out.set("multiserver.exchange_us", us(median(exchange)), "us")
	fetch := pass("multiserver.fetchmeta", n, func(i int) {
		_, err := cl.FetchMeta(idLists[i])
		note(err)
	})
	out.set("multiserver.fetchmeta_us", us(median(fetch)), "us")

	var ids int
	start := time.Now()
	for _, l := range idLists {
		_, err := multiserver.DecodeIDs(multiserver.EncodeIDs(l))
		note(err)
		ids += len(l)
	}
	out.set("multiserver.codec_ns_per_id", ratio(float64(time.Since(start).Nanoseconds()), float64(ids)), "ns")
	return mean(exchange), mean(fetch), firstErr
}

// shardPasses returns the mean fan-out time and, for a remote
// deployment, the mean time of the HTTP handler in front of it.
func shardPasses(pass passFunc, in *inputs, queries []string, quiet *log.Logger, out metrics) (queryMean, handlerMean time.Duration, err error) {
	start := time.Now()
	ec, err := shard.NewElastic(in.corpus.Ads, 2, shard.ElasticOptions{})
	if err != nil {
		return 0, 0, fmt.Errorf("in-process elastic cluster: %w", err)
	}
	out.set("shard.build_s", time.Since(start).Seconds(), "s")
	es, err := ec.Serve()
	if err != nil {
		return 0, 0, err
	}
	defer es.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, in.corpus.Ads)
	if err != nil {
		return 0, 0, err
	}
	defer adSrv.Close()
	nc, err := shard.DialRoute(func() (*shard.Route, error) {
		return ec.RouteOver(es.Addrs()), nil
	}, adSrv.Addr(), shard.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()

	var firstErr error
	query := pass("shard.query", len(queries), func(i int) {
		if _, err := nc.QueryResult(queries[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	out.set("shard.query_us", us(median(query)), "us")
	if in.spec.Remote {
		srv := server.NewRemote(nc, server.Config{Logger: quiet})
		all, _, _ := handlerPass(pass, "server.handler", srv.Handler(), queries)
		out.set("server.handler_us", us(median(all)), "us")
		handlerMean = mean(all)
	}
	return mean(query), handlerMean, firstErr
}

func searchHTTPRequest(q string) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/search?q="+url.QueryEscape(q), nil)
}

// handlerPass drives h with one GET /search per query into a recorder.
// It returns every duration in query order, the durations of the replies
// that were not served from the result cache, and which were.
func handlerPass(pass passFunc, name string, h http.Handler, queries []string) (all, miss []time.Duration, cached []bool) {
	reqs := make([]*http.Request, len(queries))
	for i, q := range queries {
		reqs[i] = searchHTTPRequest(q)
	}
	cached = make([]bool, len(queries))
	all = pass(name, len(queries), func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i])
		cached[i] = bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`))
	})
	for i, d := range all {
		if !cached[i] {
			miss = append(miss, d)
		}
	}
	return all, miss, cached
}

// cacheGetPass times Cache.Get alone on entries holding the real answers.
func cacheGetPass(pass passFunc, view adindex.View, queries []string, words [][]string, out metrics) {
	cache := server.NewCache(server.DefaultCacheEntries, server.DefaultCacheShards)
	keys := make([]string, len(queries))
	for i, q := range queries {
		keys[i] = "b\x00" + textnorm.SetKey(words[i])
		cache.Put(keys[i], 0, view.BroadMatch(q))
	}
	get := pass("server.cache_get", len(keys), func(i int) { cache.Get(keys[i], 0) })
	out.set("server.cache_get_us", us(median(get)), "us")
}

func writePasses(pass passFunc, in *inputs, ix *adindex.Index, build time.Duration, queries []string, workDir string, out metrics) error {
	muts := in.muts
	if muts == nil {
		muts = generateMutations(in.corpus, in.seed+3)
	}
	// Walk the write sequence (inserts and deletes alternate), keeping the
	// first 32 deletes. With 128 delta ads + 32 tombstones pending, match
	// through them; then keep inserting until one insert takes a fold's
	// time (foldThreshold: the index, not this code, decides when).
	const deletes, insertsForMatch = 32, 128
	threshold := foldThreshold(build)
	var inserts []time.Duration
	folded := false
	for i, m := range muts {
		if !m.Insert {
			if i < 2*deletes {
				ix.Delete(m.Ad.ID, m.Ad.Phrase)
			}
			continue
		}
		if len(inserts) == insertsForMatch {
			view := ix.View()
			var dst []adindex.Ad
			matched := pass("adindex.overlay_match", min(len(queries), 2000), func(i int) {
				dst = view.BroadMatchAppend(dst[:0], queries[i])
			})
			out.set("adindex.overlay_match_us", us(median(matched)), "us")
		}
		start := time.Now()
		ix.Insert(m.Ad)
		d := time.Since(start)
		if d > threshold {
			out.set("adindex.fold_ms", ms(d), "ms")
			folded = true
			break
		}
		inserts = append(inserts, d)
	}
	if !folded || len(inserts) <= insertsForMatch {
		return fmt.Errorf("write pass: %d inserts, fold seen: %v; want a fold after more than %d", len(inserts), folded, insertsForMatch)
	}
	out.set("adindex.insert_us", us(median(inserts)), "us")

	// durable: the same overlay insert with the WAL append in front.
	// Neither depends on corpus size, so a small bootstrap is enough.
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dix, _, err := adindex.OpenDurable(dir, adindex.Options{}, adindex.DurableConfig{
		Sync: durable.SyncNone, SnapshotEvery: -1, Bootstrap: in.corpus.Ads[:min(2000, len(in.corpus.Ads))],
	})
	if err != nil {
		return fmt.Errorf("in-process durable index: %w", err)
	}
	defer dix.Close()
	before, _ := dix.DurableStats()
	var logged []time.Duration
	for _, m := range muts {
		if len(logged) == 200 {
			break
		}
		if m.Insert {
			start := time.Now()
			dix.Insert(m.Ad)
			logged = append(logged, time.Since(start))
		}
	}
	after, _ := dix.DurableStats()
	out.set("durable.insert_us", us(median(logged)-median(inserts)), "us")
	out.set("durable.wal_bytes_per_mutation", ratio(float64(after.WALBytes-before.WALBytes), float64(after.Records-before.Records)), "B")
	return dix.PersistErr()
}

// adserve serves broad-match queries over HTTP, either from a local
// corpus file produced by adgen (or any file in the same TSV format)
// through the production serving layer in internal/server — sharded
// result cache with epoch-based invalidation, admission control with
// load shedding, JSON metrics, pprof, graceful shutdown — or, with
// -shards, as a fault-tolerant front-end over a remote sharded
// deployment (replica failover, retries with backoff, circuit breakers,
// graceful degradation).
//
// Single-node usage:
//
//	adgen -ads 100000 -out corpus.tsv
//	adserve -corpus corpus.tsv -addr :8077
//	curl 'http://localhost:8077/search?q=cheap+used+books'
//
// Distributed usage (every backend is itself an adserve):
//
//	# two index shard servers + one ad-metadata server, speaking the
//	# multiserver TCP frame protocol alongside HTTP:
//	adserve -corpus shard0.tsv -addr :8078 -tcp-index :9001
//	adserve -corpus shard1.tsv -addr :8079 -tcp-index :9002
//	adserve -corpus corpus.tsv -addr :8080 -tcp-ad :9010
//	# fault-tolerant front-end: shards separated by ';', replicas by ','
//	adserve -addr :8077 -shards '127.0.0.1:9001;127.0.0.1:9002' \
//	        -ad-server 127.0.0.1:9010 -allow-partial \
//	        -net-timeout 2s -net-retries 2 -hedge-after 20ms
//
// Elastic (live-reshardable) usage:
//
//	# one process: N-shard cluster over TCP positions + routed front-end;
//	# split/merge/migrate run live with epoch-routed atomic cutover
//	adserve -corpus corpus.tsv -elastic 2 -addr :8077
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=split'        # hottest shard
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=migrate&from=0&to=2'
//	curl 'http://localhost:8077/admin/rebalance'                         # status
//
// Endpoints (see internal/server):
//
//	/search?q=...&type=broad|exact|phrase   retrieval (cached, admitted)
//	        &rewrite=on|off                 approximate broad match (-rewrite / -synonyms)
//	/insert, /delete                        corpus mutations (POST JSON; local mode)
//	/stats                                  index structure statistics (local mode)
//	/optimize                               re-optimize layout from observed queries (local mode)
//	/metrics                                serving metrics (JSON; includes backend
//	                                        retry/breaker/degradation counters in -shards mode)
//	/healthz, /readyz                       probes (readyz reflects sustained backend loss)
//	/debug/pprof/*                          profiling
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/rewrite"
	"adindex/internal/server"
	"adindex/internal/shard"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus TSV file (required unless -shards is set)")
	mappingPath := flag.String("mapping", "", "optional mapping file from cmd/adopt to apply at startup")
	addr := flag.String("addr", "127.0.0.1:8077", "HTTP listen address")
	maxWords := flag.Int("max-words", 0, "max_words locator bound (0 = default 10)")
	cacheEntries := flag.Int("cache-entries", server.DefaultCacheEntries,
		"result cache capacity in entries (negative disables caching)")
	maxInflight := flag.Int("max-inflight", server.DefaultMaxInflight,
		"max concurrently executing searches; beyond this + queue, requests are shed with 503")
	requestTimeout := flag.Duration("request-timeout", server.DefaultRequestTimeout,
		"per-request deadline covering admission-queue wait and execution")
	maxObserved := flag.Int("max-observed", adindex.DefaultMaxObservedQueries,
		"cap on distinct observed queries kept for layout optimization (negative = unbounded)")

	// Continuous adaptation (local modes): a background control loop that
	// re-maps the most misplaced word sets each round instead of
	// stop-the-world /optimize calls (see DESIGN.md §5.10).
	adaptInterval := flag.Duration("adapt-interval", 0,
		"continuous adaptation: background re-mapping round period; also enables per-query cost tracking and live cost-model recalibration (0 disables; local modes only)")
	adaptTopK := flag.Int("adapt-topk", 0,
		"continuous adaptation: max misplaced word sets moved per round (0 = default 32, negative = unbounded)")

	// Overload armor: per-query cost budgets, adaptive load shedding, and
	// the poison-query quarantine (see DESIGN.md §5.9).
	queryBudget := flag.Int64("query-budget", 0,
		"max index cost units one broad-match query may spend; an exhausted query answers a flagged, verified partial result (0 = unlimited)")
	shedTargetDelay := flag.Duration("shed-target-delay", 0,
		"adaptive (CoDel-style) load shedding: reject new arrivals with 503/Retry-After while the admission queue's per-window minimum delay exceeds this (0 disables)")
	quarantineTTL := flag.Duration("quarantine-ttl", 0,
		"fast-reject queries that panic or repeatedly blow their budget for this long (0 disables the quarantine)")

	// Approximate broad match (local mode): /search?rewrite=on expands the
	// query with spelling corrections (and synonyms when -synonyms is set)
	// and tags each result with how it was reached.
	rewriteOn := flag.Bool("rewrite", false,
		"enable approximate broad match (/search?rewrite=on): fuzzy spelling rewrites, plus synonym substitutions with -synonyms")
	synonymsPath := flag.String("synonyms", "",
		"synonym-class TSV (one class per line, tab-separated words); implies -rewrite")
	rewriteMaxVariants := flag.Int("rewrite-max-variants", 0,
		"cap on rewrite variants planned per query (0 = default, negative = unbounded)")
	rewriteMaxProbes := flag.Int("rewrite-max-probes", 0,
		"cap on index probes per rewritten query, exact probe included (0 = default, negative = unbounded)")

	// Durable persistence (local mode): every acknowledged mutation is
	// WAL-logged before it applies, and the index recovers from the
	// newest valid snapshot + WAL on restart.
	dataDir := flag.String("data-dir", "",
		"durable state directory (snapshots + write-ahead log with crash recovery); local mode only")
	walSync := flag.String("wal-sync", "always",
		"WAL sync policy: 'always' fsyncs every mutation before acknowledging it, 'none' leaves flushing to the OS (flushed on graceful shutdown)")
	snapshotEvery := flag.Int("snapshot-every", adindex.DefaultSnapshotEvery,
		"rotate the WAL into a fresh snapshot after this many records (negative disables auto-rotation)")
	allowPartialRecovery := flag.Bool("allow-partial-recovery", false,
		"serve even when recovery fell back a snapshot generation or dropped WAL records; without it such recovery exits non-zero")

	// Local-mode TCP serving: expose the index and/or ad metadata over the
	// multiserver frame protocol so this process can back a -shards
	// front-end.
	tcpIndex := flag.String("tcp-index", "", "also serve the index over the TCP frame protocol on this address")
	tcpAd := flag.String("tcp-ad", "", "also serve ad metadata over the TCP frame protocol on this address")

	// Elastic (live-reshardable) mode: one process hosting an
	// ElasticCluster with every shard position served over TCP, fronted
	// by its own routed client. Split/merge/migrate run live via
	// POST /admin/rebalance with zero downtime (epoch-routed cutover).
	elasticShards := flag.Int("elastic", 0,
		"elastic mode: initial shard count for a live-reshardable cluster built from -corpus (0 disables)")
	elasticMaxShards := flag.Int("elastic-max-shards", 0,
		"elastic mode: shard-count ceiling (pre-provisioned TCP positions; 0 = default 8)")
	elasticSlots := flag.Int("elastic-slots", 0,
		fmt.Sprintf("elastic mode: routing slot-universe size (0 = default %d)", shard.DefaultSlots))

	// Remote (distributed front-end) mode.
	shards := flag.String("shards", "",
		"remote mode: index shard addresses, shards separated by ';', replicas of one shard by ','")
	adServer := flag.String("ad-server", "",
		"remote mode: ad-metadata server address (required with -shards)")
	netTimeout := flag.Duration("net-timeout", multiserver.DefaultTimeout,
		"remote mode: per-exchange backend deadline")
	netRetries := flag.Int("net-retries", multiserver.DefaultMaxRetries,
		"remote mode: retry budget per backend exchange (negative disables retries)")
	retryBase := flag.Duration("retry-base", 10*time.Millisecond,
		"remote mode: first retry backoff (doubles per attempt, plus jitter)")
	breakerThreshold := flag.Int("breaker-threshold", 5,
		"remote mode: consecutive failures that open a backend's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second,
		"remote mode: how long an open breaker waits before half-opening")
	hedgeAfter := flag.Duration("hedge-after", 0,
		"remote mode: duplicate an in-flight shard query to the next replica after this delay (0 disables)")
	allowPartial := flag.Bool("allow-partial", false,
		"remote mode: serve degraded (partial / ID-only) results instead of failing when backends are down")
	minLiveShards := flag.Int("min-live-shards", 1,
		"remote mode: minimum shards that must answer for a partial result")
	backendGrace := flag.Duration("backend-grace", 10*time.Second,
		"remote mode: sustained backend loss longer than this flips /readyz to 503")
	flag.Parse()

	cfg := server.Config{
		CacheEntries:     *cacheEntries,
		MaxInflight:      *maxInflight,
		RequestTimeout:   *requestTimeout,
		BackendLossGrace: *backendGrace,
		QueryBudget:      *queryBudget,
		ShedTargetDelay:  *shedTargetDelay,
		QuarantineTTL:    *quarantineTTL,
	}

	var adaptOpts *adindex.AdaptOptions
	if *adaptInterval > 0 {
		adaptOpts = &adindex.AdaptOptions{
			Interval:  *adaptInterval,
			TopK:      *adaptTopK,
			Calibrate: true,
		}
	}

	var rewriteOpts *adindex.RewriteOptions
	if *rewriteOn || *synonymsPath != "" {
		if *shards != "" {
			log.Fatal("-rewrite/-synonyms are incompatible with -shards: rewrite runs on a local index")
		}
		rewriteOpts = &adindex.RewriteOptions{
			MaxVariants: *rewriteMaxVariants,
			MaxProbes:   *rewriteMaxProbes,
		}
		if *synonymsPath != "" {
			f, err := os.Open(*synonymsPath)
			if err != nil {
				log.Fatal(err)
			}
			classes, err := rewrite.ReadClasses(f)
			f.Close()
			if err != nil {
				log.Fatalf("reading synonyms: %v", err)
			}
			rewriteOpts.Synonyms = classes
			log.Printf("loaded %d synonym classes (%d words) from %s",
				classes.NumClasses(), classes.NumWords(), *synonymsPath)
		}
		log.Printf("approximate broad match enabled (variants=%d, probes=%d; 0 = default)",
			*rewriteMaxVariants, *rewriteMaxProbes)
	}

	if *elasticShards > 0 {
		switch {
		case *shards != "":
			log.Fatal("-elastic is incompatible with -shards: the elastic node hosts its own cluster")
		case *dataDir != "":
			log.Fatal("-elastic is incompatible with -data-dir: the elastic cluster is not durable yet")
		case rewriteOpts != nil:
			log.Fatal("-elastic is incompatible with -rewrite/-synonyms: rewrite runs on a local index")
		case *tcpIndex != "":
			log.Fatal("-elastic is incompatible with -tcp-index: shard positions already serve the TCP index protocol")
		case adaptOpts != nil:
			log.Fatal("-adapt-interval is incompatible with -elastic: the cluster re-maps via the offline export/optimize path")
		}
		runElastic(cfg, elasticFlags{
			shards:           *elasticShards,
			maxShards:        *elasticMaxShards,
			slots:            *elasticSlots,
			corpus:           *corpusPath,
			addr:             *addr,
			tcpAd:            *tcpAd,
			maxWords:         *maxWords,
			timeout:          *netTimeout,
			retries:          *netRetries,
			retryBase:        *retryBase,
			breakerThreshold: *breakerThreshold,
			breakerCooldown:  *breakerCooldown,
			hedgeAfter:       *hedgeAfter,
			allowPartial:     *allowPartial,
			minLiveShards:    *minLiveShards,
		})
		return
	}

	if *dataDir != "" {
		if *shards != "" {
			log.Fatal("-data-dir is incompatible with -shards: a remote front-end holds no local index state")
		}
		runDurable(cfg, durableFlags{
			dataDir:       *dataDir,
			walSync:       *walSync,
			snapshotEvery: *snapshotEvery,
			allowPartial:  *allowPartialRecovery,
			corpusPath:    *corpusPath,
			mappingPath:   *mappingPath,
			addr:          *addr,
			tcpIndex:      *tcpIndex,
			tcpAd:         *tcpAd,
			maxWords:      *maxWords,
			maxObserved:   *maxObserved,
			queryBudget:   *queryBudget,
			rewriteOpts:   rewriteOpts,
			adaptOpts:     adaptOpts,
		})
		return
	}

	var srv *server.Server
	if *shards != "" {
		if *adServer == "" {
			log.Fatal("-shards requires -ad-server")
		}
		if adaptOpts != nil {
			log.Fatal("-adapt-interval requires a local index; a remote front-end holds none")
		}
		replicas := parseShards(*shards)
		nc, err := shard.DialReplicaShards(replicas, *adServer, shard.Options{
			Conn: multiserver.ConnOpts{
				Timeout:          *netTimeout,
				MaxRetries:       *netRetries,
				RetryBase:        *retryBase,
				BreakerThreshold: *breakerThreshold,
				BreakerCooldown:  *breakerCooldown,
			},
			AllowPartial:  *allowPartial,
			MinLiveShards: *minLiveShards,
			HedgeAfter:    *hedgeAfter,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer nc.Close()
		log.Printf("front-end over %d shards (ad server %s, partial=%v, hedge=%v)",
			nc.NumShards(), *adServer, *allowPartial, *hedgeAfter)
		srv = server.NewRemote(nc, cfg)
	} else {
		if *corpusPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		f, err := os.Open(*corpusPath)
		if err != nil {
			log.Fatal(err)
		}
		c, err := corpus.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d ads from %s", c.NumAds(), *corpusPath)
		ix := adindex.Build(c.Ads, adindex.Options{
			MaxWords:           *maxWords,
			MaxObservedQueries: *maxObserved,
			Rewrite:            rewriteOpts,
			Adapt:              adaptOpts,
		})
		if *mappingPath != "" {
			mf, err := os.Open(*mappingPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := ix.ApplyMapping(mf); err != nil {
				log.Fatalf("applying mapping: %v", err)
			}
			mf.Close()
			log.Printf("applied offline mapping from %s", *mappingPath)
		}
		st := ix.Stats()
		log.Printf("index ready: %d ads, %d nodes, %d distinct sets",
			st.NumAds, st.NumNodes, st.DistinctSets)

		if adaptOpts != nil {
			ix.StartAdapt()
			defer ix.StopAdapt()
			log.Printf("continuous adaptation: round every %v, top-k %d", *adaptInterval, *adaptTopK)
		}

		if *tcpIndex != "" {
			ts, err := multiserver.NewIndexServer(*tcpIndex, multiserver.ServeOpts{}, indexBackend{ix, *queryBudget})
			if err != nil {
				log.Fatalf("tcp index server: %v", err)
			}
			defer ts.Close()
			log.Printf("serving TCP index protocol on %s", ts.Addr())
		}
		if *tcpAd != "" {
			as, err := multiserver.NewAdServer(*tcpAd, multiserver.ServeOpts{}, c.Ads)
			if err != nil {
				log.Fatalf("tcp ad server: %v", err)
			}
			defer as.Close()
			log.Printf("serving TCP ad-metadata protocol on %s", as.Addr())
		}
		srv = server.New(ix, cfg)
	}

	// Run binds before serving, so a bad -addr fails here with a non-zero
	// exit instead of a goroutine logging into the void.
	if err := srv.Run(*addr); err != nil {
		log.Fatal(err)
	}
}

type durableFlags struct {
	dataDir, walSync        string
	snapshotEvery           int
	allowPartial            bool
	corpusPath, mappingPath string
	addr, tcpIndex, tcpAd   string
	maxWords, maxObserved   int
	queryBudget             int64
	rewriteOpts             *adindex.RewriteOptions
	adaptOpts               *adindex.AdaptOptions
}

// runDurable is the durable-mode main loop: bind the port first (so
// /healthz answers and /readyz reports "recovering" during a long WAL
// replay), recover the index from -data-dir, refuse degraded recovery
// unless overridden, install the index, and serve until SIGTERM — after
// which the drain flushes the WAL before exit.
func runDurable(cfg server.Config, df durableFlags) {
	var syncMode durable.SyncMode
	switch df.walSync {
	case "always":
		syncMode = durable.SyncAlways
	case "none":
		syncMode = durable.SyncNone
	default:
		log.Fatalf("-wal-sync must be 'always' or 'none', got %q", df.walSync)
	}

	// Preflight the recovery read-only: opening the store truncates torn
	// tails and removes files past a corrupt frame, so the degraded-state
	// refusal must happen BEFORE any of that — the refusal then holds
	// across restarts and leaves the evidence intact for adfsck.
	if !df.allowPartial {
		plan, err := durable.Plan(nil, df.dataDir)
		if err != nil {
			log.Fatalf("durable preflight failed: %v (inspect with adfsck %s)", err, df.dataDir)
		}
		if plan.Degraded() {
			log.Printf("recovery would be DEGRADED: %d snapshot generation(s) skipped %v, %d WAL bytes dropped, %d WAL file(s) discarded",
				plan.SnapshotsSkipped, plan.SkipReasons, plan.DroppedBytes, plan.DroppedWALFiles)
			if plan.TornDetail != "" {
				log.Printf("first bad WAL frame: %s", plan.TornDetail)
			}
			log.Printf("refusing to serve partially recovered state (directory untouched); rerun with -allow-partial-recovery to accept the loss, or inspect with adfsck %s", df.dataDir)
			os.Exit(1)
		}
	}

	srv := server.NewRecovering(cfg)
	if err := srv.Start(df.addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s (recovering durable state from %s)", srv.Addr(), df.dataDir)

	// -corpus seeds a FRESH directory only; once the directory holds
	// state, disk wins and the flag is ignored (logged below).
	var bootstrap []adindex.Ad
	if df.corpusPath != "" {
		f, err := os.Open(df.corpusPath)
		if err != nil {
			log.Fatal(err)
		}
		c, err := corpus.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		bootstrap = c.Ads
	}

	ix, report, err := adindex.OpenDurable(df.dataDir, adindex.Options{
		MaxWords:           df.maxWords,
		MaxObservedQueries: df.maxObserved,
		Rewrite:            df.rewriteOpts,
		Adapt:              df.adaptOpts,
	}, adindex.DurableConfig{
		Sync:          syncMode,
		SnapshotEvery: df.snapshotEvery,
		Bootstrap:     bootstrap,
	})
	if err != nil {
		log.Fatalf("durable recovery failed: %v", err)
	}
	defer ix.Close()

	switch {
	case report.Fresh && len(bootstrap) > 0:
		log.Printf("initialized %s from %s (%d ads, snapshot gen %d)",
			df.dataDir, df.corpusPath, len(bootstrap), 1)
	case report.Fresh:
		log.Printf("initialized empty durable state in %s", df.dataDir)
	default:
		log.Printf("recovered gen %d: %d snapshot ads + %d WAL records replayed (%d WAL files)",
			report.SnapshotGen, report.SnapshotAds, report.RecordsReplayed, report.WALFiles)
		if df.corpusPath != "" {
			log.Printf("-corpus %s ignored: %s already holds state (disk wins over flags)",
				df.corpusPath, df.dataDir)
		}
	}
	if report.Torn {
		log.Printf("WAL tail was torn or corrupt: %s (%d bytes dropped)", report.TornDetail, report.DroppedBytes)
	}
	if report.Degraded() {
		log.Printf("recovery is DEGRADED: %d snapshot generation(s) skipped %v, %d WAL bytes dropped, %d WAL file(s) discarded",
			report.SnapshotsSkipped, report.SkipReasons, report.DroppedBytes, report.DroppedWALFiles)
		if !df.allowPartial {
			log.Printf("refusing to serve partially recovered state; rerun with -allow-partial-recovery to accept the loss, or inspect with adfsck %s", df.dataDir)
			os.Exit(1)
		}
		log.Printf("continuing under -allow-partial-recovery")
	}

	if df.mappingPath != "" {
		mf, err := os.Open(df.mappingPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ix.ApplyMapping(mf); err != nil {
			log.Fatalf("applying mapping: %v", err)
		}
		mf.Close()
		log.Printf("applied offline mapping from %s", df.mappingPath)
	}

	st := ix.Stats()
	log.Printf("index ready: %d ads, %d nodes, %d distinct sets",
		st.NumAds, st.NumNodes, st.DistinctSets)
	srv.InstallIndex(ix, report)

	if df.adaptOpts != nil {
		ix.StartAdapt()
		defer ix.StopAdapt()
		log.Printf("continuous adaptation: round every %v, top-k %d", df.adaptOpts.Interval, df.adaptOpts.TopK)
	}

	if df.tcpIndex != "" {
		ts, err := multiserver.NewIndexServer(df.tcpIndex, multiserver.ServeOpts{}, indexBackend{ix, df.queryBudget})
		if err != nil {
			log.Fatalf("tcp index server: %v", err)
		}
		defer ts.Close()
		log.Printf("serving TCP index protocol on %s", ts.Addr())
	}
	if df.tcpAd != "" {
		as, err := multiserver.NewAdServer(df.tcpAd, multiserver.ServeOpts{}, ix.Ads())
		if err != nil {
			log.Fatalf("tcp ad server: %v", err)
		}
		defer as.Close()
		log.Printf("serving TCP ad-metadata protocol on %s", as.Addr())
	}

	if err := srv.AwaitShutdown(); err != nil {
		log.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		log.Fatalf("closing durable store: %v", err)
	}
}

// indexBackend adapts the public adindex.Index to the multiserver
// Backend interface (IDs only on the wire; metadata lives on the ad
// server, as in the paper's Section VII-B split).
type indexBackend struct {
	ix     *adindex.Index
	budget int64 // -query-budget; 0 = unlimited cost
}

func (b indexBackend) MatchIDs(query string) []uint64 {
	ids, _ := b.MatchIDsBudget(query, time.Time{}, false)
	return ids
}

// MatchIDsBudget implements multiserver.BudgetBackend: the wire
// deadline and the local -query-budget bound the enumeration, and
// truncation/cutoff ride back to the front-end as ID-frame flags.
func (b indexBackend) MatchIDsBudget(query string, deadline time.Time, has bool) ([]uint64, byte) {
	qb := adindex.QueryBudget{MaxCost: b.budget}
	if has {
		qb.Deadline = deadline
	}
	res := b.ix.Match(nil, adindex.Query{Text: query, Budget: qb})
	ids := make([]uint64, len(res.Ads))
	for i := range res.Ads {
		ids[i] = res.Ads[i].ID
	}
	var flags byte
	if res.Truncated {
		flags |= multiserver.IDFlagTruncated
	}
	if res.CutoffApplied {
		flags |= multiserver.IDFlagCutoff
	}
	return ids, flags
}

// parseShards splits "a,b;c,d" into [[a b] [c d]]: ';' separates shards,
// ',' separates the replicas of one shard.
func parseShards(spec string) [][]string {
	var out [][]string
	for _, shardSpec := range strings.Split(spec, ";") {
		var replicas []string
		for _, addr := range strings.Split(shardSpec, ",") {
			if a := strings.TrimSpace(addr); a != "" {
				replicas = append(replicas, a)
			}
		}
		if len(replicas) > 0 {
			out = append(out, replicas)
		}
	}
	return out
}

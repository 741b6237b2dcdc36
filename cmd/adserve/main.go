// adserve serves broad-match queries over HTTP, either from a local
// corpus file produced by adgen (or any file in the same TSV format)
// through the production serving layer in internal/server — sharded
// result cache invalidated by the words a write touches, admission control
// with load shedding, JSON metrics, pprof, graceful shutdown — or, with
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
//	# the shards answer with ad records (one round trip per shard, no ad
//	# server unless -tcp-ad asks for one); split/merge/migrate run live
//	# with epoch-routed atomic cutover
//	adserve -corpus corpus.tsv -elastic 2 -addr :8077
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=split'        # hottest shard
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=migrate&from=0&to=2'
//	curl 'http://localhost:8077/admin/rebalance'                         # status
//
// Flag combinations that would silently drop a flag are refused at
// start-up; the refusals table below lists every one with its reason.
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
	"errors"
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

// flags is every adserve command-line option.
type flags struct {
	corpus, mapping, addr string
	maxWords              int
	cacheEntries          int
	maxInflight           int
	requestTimeout        time.Duration
	maxObserved           int

	adaptInterval time.Duration
	adaptTopK     int

	queryBudget     int64
	shedTargetDelay time.Duration
	quarantineTTL   time.Duration

	rewrite            bool
	synonyms           string
	rewriteMaxVariants int
	rewriteMaxProbes   int

	dataDir, walSync     string
	snapshotEvery        int
	allowPartialRecovery bool

	tcpIndex, tcpAd string

	elastic, elasticMaxShards, elasticSlots int

	shards, adServer string
	netTimeout       time.Duration
	netRetries       int
	retryBase        time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	hedgeAfter       time.Duration
	allowPartial     bool
	minLiveShards    int
	backendGrace     time.Duration
}

func defineFlags(fs *flag.FlagSet) *flags {
	f := new(flags)
	fs.StringVar(&f.corpus, "corpus", "", "corpus TSV file (required unless -shards or -data-dir is set)")
	fs.StringVar(&f.mapping, "mapping", "", "optional mapping file from cmd/adopt to apply at startup")
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8077", "HTTP listen address")
	fs.IntVar(&f.maxWords, "max-words", 0, "max_words locator bound (0 = default 10)")
	fs.IntVar(&f.cacheEntries, "cache-entries", server.DefaultCacheEntries,
		"result cache capacity in entries (negative disables caching)")
	fs.IntVar(&f.maxInflight, "max-inflight", server.DefaultMaxInflight,
		"max concurrently executing searches; beyond this + queue, requests are shed with 503")
	fs.DurationVar(&f.requestTimeout, "request-timeout", server.DefaultRequestTimeout,
		"per-request deadline covering admission-queue wait and execution")
	fs.IntVar(&f.maxObserved, "max-observed", adindex.DefaultMaxObservedQueries,
		"cap on distinct observed queries kept for layout optimization (negative = unbounded)")

	// Continuous adaptation (local index): a background control loop that
	// re-maps the most misplaced word sets each round instead of
	// stop-the-world /optimize calls (see DESIGN.md §5.10).
	fs.DurationVar(&f.adaptInterval, "adapt-interval", 0,
		"continuous adaptation: background re-mapping round period; also enables per-query cost tracking and live cost-model recalibration (0 disables; local index only)")
	fs.IntVar(&f.adaptTopK, "adapt-topk", 0,
		"continuous adaptation: max misplaced word sets moved per round (0 = default 32, negative = unbounded)")

	// Overload armor: per-query cost budgets, adaptive load shedding, and
	// the poison-query quarantine (see DESIGN.md §5.9).
	fs.Int64Var(&f.queryBudget, "query-budget", 0,
		"max index cost units one broad-match query may spend; an exhausted query answers a flagged, verified partial result (0 = unlimited; local index only)")
	fs.DurationVar(&f.shedTargetDelay, "shed-target-delay", 0,
		"adaptive (CoDel-style) load shedding: reject new arrivals with 503/Retry-After while the admission queue's per-window minimum delay exceeds this (0 disables)")
	fs.DurationVar(&f.quarantineTTL, "quarantine-ttl", 0,
		"fast-reject queries that panic or repeatedly blow their budget for this long (0 disables the quarantine)")

	// Approximate broad match (local index): /search?rewrite=on expands the
	// query with spelling corrections (and synonyms when -synonyms is set)
	// and tags each result with how it was reached.
	fs.BoolVar(&f.rewrite, "rewrite", false,
		"enable approximate broad match (/search?rewrite=on): fuzzy spelling rewrites, plus synonym substitutions with -synonyms")
	fs.StringVar(&f.synonyms, "synonyms", "",
		"synonym-class TSV (one class per line, tab-separated words); implies -rewrite")
	fs.IntVar(&f.rewriteMaxVariants, "rewrite-max-variants", 0,
		"cap on rewrite variants planned per query (0 = default, negative = unbounded)")
	fs.IntVar(&f.rewriteMaxProbes, "rewrite-max-probes", 0,
		"cap on index probes per rewritten query, exact probe included (0 = default, negative = unbounded)")

	// Durable persistence (local index): every acknowledged mutation is
	// WAL-logged before it applies, and the index recovers from the
	// newest valid snapshot + WAL on restart.
	fs.StringVar(&f.dataDir, "data-dir", "",
		"durable state directory (snapshots + write-ahead log with crash recovery); local index only")
	fs.StringVar(&f.walSync, "wal-sync", "always",
		"WAL sync policy: 'always' fsyncs every mutation before acknowledging it, 'none' leaves flushing to the OS (flushed on graceful shutdown)")
	fs.IntVar(&f.snapshotEvery, "snapshot-every", adindex.DefaultSnapshotEvery,
		"rotate the WAL into a fresh snapshot after this many records (negative disables auto-rotation)")
	fs.BoolVar(&f.allowPartialRecovery, "allow-partial-recovery", false,
		"serve even when recovery fell back a snapshot generation or dropped WAL records; without it such recovery exits non-zero")

	// TCP serving: expose the local index and/or ad metadata over the
	// multiserver frame protocol so this process can back a -shards
	// front-end.
	fs.StringVar(&f.tcpIndex, "tcp-index", "", "also serve the index over the TCP frame protocol on this address")
	fs.StringVar(&f.tcpAd, "tcp-ad", "", "also serve ad metadata over the TCP frame protocol on this address")

	// Elastic (live-reshardable) mode: one process hosting an
	// ElasticCluster with every shard position served over TCP, fronted
	// by its own client on the live route. Split/merge/migrate run live via
	// POST /admin/rebalance with zero downtime (epoch-routed cutover).
	fs.IntVar(&f.elastic, "elastic", 0,
		"elastic mode: initial shard count for a live-reshardable cluster built from -corpus (0 disables)")
	fs.IntVar(&f.elasticMaxShards, "elastic-max-shards", 0,
		"elastic mode: shard-count ceiling (pre-provisioned TCP positions; 0 = default 8)")
	fs.IntVar(&f.elasticSlots, "elastic-slots", 0,
		fmt.Sprintf("elastic mode: routing slot-universe size (0 = default %d)", shard.DefaultSlots))

	// Remote (distributed front-end) mode; the client tuning also applies
	// to the elastic node's own fan-out client.
	fs.StringVar(&f.shards, "shards", "",
		"remote mode: index shard addresses, shards separated by ';', replicas of one shard by ','")
	fs.StringVar(&f.adServer, "ad-server", "",
		"remote mode: ad-metadata server address (required with -shards)")
	fs.DurationVar(&f.netTimeout, "net-timeout", multiserver.DefaultTimeout,
		"remote mode: per-exchange backend deadline")
	fs.IntVar(&f.netRetries, "net-retries", multiserver.DefaultMaxRetries,
		"remote mode: retry budget per backend exchange (negative disables retries)")
	fs.DurationVar(&f.retryBase, "retry-base", 10*time.Millisecond,
		"remote mode: first retry backoff (doubles per attempt, plus jitter)")
	fs.IntVar(&f.breakerThreshold, "breaker-threshold", 5,
		"remote mode: consecutive failures that open a backend's circuit breaker")
	fs.DurationVar(&f.breakerCooldown, "breaker-cooldown", time.Second,
		"remote mode: how long an open breaker waits before half-opening")
	fs.DurationVar(&f.hedgeAfter, "hedge-after", 0,
		"remote mode: duplicate an in-flight shard query to the next replica after this delay (0 disables)")
	fs.BoolVar(&f.allowPartial, "allow-partial", false,
		"remote mode: serve degraded (partial / ID-only) results instead of failing when backends are down")
	fs.IntVar(&f.minLiveShards, "min-live-shards", 1,
		"remote mode: minimum shards that must answer for a partial result")
	fs.DurationVar(&f.backendGrace, "backend-grace", 10*time.Second,
		"remote mode: sustained backend loss longer than this flips /readyz to 503")
	return f
}

// The deployment a command line selects. The in-memory and -data-dir
// indexes share one start-up flow (runLocal).
const (
	modeElastic = "-elastic"
	modeShards  = "-shards"
	modeDurable = "-data-dir"
	modeMemory  = "an in-memory index"
)

func (f *flags) mode() string {
	switch {
	case f.elastic > 0:
		return modeElastic
	case f.shards != "":
		return modeShards
	case f.dataDir != "":
		return modeDurable
	}
	return modeMemory
}

// refusals lists every flag adserve rejects or insists on in some mode,
// each with its one-line reason. Nothing else refuses a flag: a
// combination not listed here composes. The forbidden rows are all
// features of the single-node adindex.Index, which the -shards front end
// does not hold and the elastic cluster's bare core.Index shards do not
// have yet (ROADMAP "One shard engine").
var refusals = []struct {
	flag, mode string
	required   bool // the mode needs the flag; otherwise it forbids it
	reason     string
}{
	{"corpus", modeMemory, true, "there is nothing else to build the index from"},
	{"corpus", modeElastic, true, "the cluster is built from it"},
	{"ad-server", modeShards, true, "the front end fetches ad metadata from it"},

	{"shards", modeElastic, false, "the elastic node hosts its own cluster"},
	{"data-dir", modeElastic, false, "the elastic cluster is not durable yet"},
	{"rewrite", modeElastic, false, "rewrite runs on a local index"},
	{"synonyms", modeElastic, false, "rewrite runs on a local index"},
	{"tcp-index", modeElastic, false, "shard positions already serve the TCP index protocol"},
	{"adapt-interval", modeElastic, false, "the cluster re-maps via the offline export/optimize path"},
	{"query-budget", modeElastic, false, "cluster shards match without a cost budget, so the bound would be dropped"},
	{"mapping", modeElastic, false, "a mapping file describes one index, not a cluster's shards"},

	{"data-dir", modeShards, false, "a remote front-end holds no local index state"},
	{"rewrite", modeShards, false, "rewrite runs on a local index"},
	{"synonyms", modeShards, false, "rewrite runs on a local index"},
	{"adapt-interval", modeShards, false, "adaptation needs a local index; a remote front-end holds none"},
	{"query-budget", modeShards, false, "the budget is enforced where the index is: set it on the -tcp-index backends"},
	{"mapping", modeShards, false, "a remote front-end holds no index to re-map"},
	{"tcp-index", modeShards, false, "a remote front-end holds no index to serve"},
	{"tcp-ad", modeShards, false, "a remote front-end holds no ads to serve"},
}

// refuse returns the first refusals row the command line violates, as
// an error, or nil.
func refuse(fs *flag.FlagSet, f *flags) error {
	given := make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	mode := f.mode()
	for _, r := range refusals {
		if r.mode != mode || given[r.flag] == r.required {
			continue
		}
		if r.required {
			return fmt.Errorf("%s requires -%s: %s", mode, r.flag, r.reason)
		}
		return fmt.Errorf("-%s is incompatible with %s: %s", r.flag, mode, r.reason)
	}
	return nil
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := refuse(flag.CommandLine, f); err != nil {
		log.Fatal(err)
	}
	cfg := server.Config{
		CacheEntries:     f.cacheEntries,
		MaxInflight:      f.maxInflight,
		RequestTimeout:   f.requestTimeout,
		BackendLossGrace: f.backendGrace,
		QueryBudget:      f.queryBudget,
		ShedTargetDelay:  f.shedTargetDelay,
		QuarantineTTL:    f.quarantineTTL,
	}
	switch f.mode() {
	case modeElastic:
		runElastic(f, cfg)
	case modeShards:
		runShards(f, cfg)
	default:
		runLocal(f, cfg)
	}
}

// loadCorpus reads the -corpus file.
func loadCorpus(path string) []adindex.Ad {
	start := time.Now()
	file, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	c, err := corpus.Read(file)
	file.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d ads from %s in %d ms", c.NumAds(), path, time.Since(start).Milliseconds())
	return c.Ads
}

// indexOptions maps the flags onto the local index's options, loading
// the synonym table when one is named.
func indexOptions(f *flags) adindex.Options {
	opts := adindex.Options{MaxWords: f.maxWords, MaxObservedQueries: f.maxObserved}
	if f.adaptInterval > 0 {
		opts.Adapt = &adindex.AdaptOptions{Interval: f.adaptInterval, TopK: f.adaptTopK, Calibrate: true}
	}
	if f.rewrite || f.synonyms != "" {
		opts.Rewrite = &adindex.RewriteOptions{MaxVariants: f.rewriteMaxVariants, MaxProbes: f.rewriteMaxProbes}
		if f.synonyms != "" {
			file, err := os.Open(f.synonyms)
			if err != nil {
				log.Fatal(err)
			}
			classes, err := rewrite.ReadClasses(file)
			file.Close()
			if err != nil {
				log.Fatalf("reading synonyms: %v", err)
			}
			opts.Rewrite.Synonyms = classes
			log.Printf("loaded %d synonym classes (%d words) from %s",
				classes.NumClasses(), classes.NumWords(), f.synonyms)
		}
		log.Printf("approximate broad match enabled (variants=%d, probes=%d; 0 = default)",
			f.rewriteMaxVariants, f.rewriteMaxProbes)
	}
	return opts
}

// runLocal serves a local index, in memory or (-data-dir) durable: bind
// the port first — so /healthz answers and /readyz reports "recovering"
// during a long build or WAL replay —, build or recover the index, apply
// the offline mapping, install the index, start adaptation and the TCP
// protocol servers, and serve until SIGTERM, after which the drain
// flushes the WAL before exit.
func runLocal(f *flags, cfg server.Config) {
	opts := indexOptions(f)
	var dc adindex.DurableConfig
	if f.dataDir != "" {
		dc = preflightDurable(f)
	}

	srv := server.New(nil, cfg)
	// Start binds before serving, so a bad -addr fails here with a
	// non-zero exit instead of a goroutine logging into the void.
	if err := srv.Start(f.addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", srv.Addr())

	var ads []adindex.Ad
	if f.corpus != "" {
		ads = loadCorpus(f.corpus)
	}
	var ix *adindex.Index
	var report *durable.RecoveryReport
	if f.dataDir != "" {
		dc.Bootstrap = ads
		ix, report = openDurable(f, opts, dc)
	} else {
		ix = adindex.Build(ads, opts)
	}

	if f.mapping != "" {
		mf, err := os.Open(f.mapping)
		if err != nil {
			log.Fatal(err)
		}
		if err := ix.ApplyMapping(mf); err != nil {
			log.Fatalf("applying mapping: %v", err)
		}
		mf.Close()
		log.Printf("applied offline mapping from %s", f.mapping)
	}
	st := ix.Stats()
	log.Printf("index ready: %d ads, %d nodes, %d distinct sets, built in %d ms",
		st.NumAds, st.NumNodes, st.DistinctSets, int(ix.BuildSeconds()*1000))
	srv.InstallIndex(ix, report)

	if opts.Adapt != nil {
		ix.StartAdapt()
		defer ix.StopAdapt()
		log.Printf("continuous adaptation: round every %v, top-k %d", f.adaptInterval, f.adaptTopK)
	}
	if f.tcpIndex != "" {
		ts, err := multiserver.NewIndexServer(f.tcpIndex, multiserver.ServeOpts{}, indexBackend{ix, f.queryBudget})
		if err != nil {
			log.Fatalf("tcp index server: %v", err)
		}
		defer ts.Close()
		log.Printf("serving TCP index protocol on %s", ts.Addr())
	}
	if f.tcpAd != "" {
		as, err := multiserver.NewAdServer(f.tcpAd, multiserver.ServeOpts{}, ix.Ads())
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

// preflightDurable checks the durable flags before the port is bound and
// returns the store configuration. Unless -allow-partial-recovery, it
// plans the recovery read-only and refuses a degraded one: opening the
// store truncates torn tails and removes files past a corrupt frame, so
// the refusal must happen BEFORE any of that — it then holds across
// restarts and leaves the evidence intact for adfsck.
func preflightDurable(f *flags) adindex.DurableConfig {
	dc := adindex.DurableConfig{SnapshotEvery: f.snapshotEvery}
	switch f.walSync {
	case "always":
		dc.Sync = durable.SyncAlways
	case "none":
		dc.Sync = durable.SyncNone
	default:
		log.Fatalf("-wal-sync must be 'always' or 'none', got %q", f.walSync)
	}
	if f.allowPartialRecovery {
		return dc
	}
	plan, err := durable.Plan(nil, f.dataDir)
	if err != nil {
		log.Fatalf("durable preflight failed: %v (inspect with adfsck %s)", err, f.dataDir)
	}
	if plan.Degraded() {
		log.Printf("recovery would be DEGRADED: %d snapshot generation(s) skipped %v, %d WAL bytes dropped, %d WAL file(s) discarded",
			plan.SnapshotsSkipped, plan.SkipReasons, plan.DroppedBytes, plan.DroppedWALFiles)
		if plan.TornDetail != "" {
			log.Printf("first bad WAL frame: %s", plan.TornDetail)
		}
		log.Printf("refusing to serve partially recovered state (directory untouched); rerun with -allow-partial-recovery to accept the loss, or inspect with adfsck %s", f.dataDir)
		os.Exit(1)
	}
	return dc
}

// openDurable recovers the index from -data-dir. dc.Bootstrap (the
// -corpus ads) seeds a FRESH directory only; once the directory holds
// state, disk wins and the flag is ignored (logged below).
func openDurable(f *flags, opts adindex.Options, dc adindex.DurableConfig) (*adindex.Index, *durable.RecoveryReport) {
	log.Printf("recovering durable state from %s", f.dataDir)
	ix, report, err := adindex.OpenDurable(f.dataDir, opts, dc)
	if err != nil {
		log.Fatalf("durable recovery failed: %v", err)
	}

	switch {
	case report.Fresh && len(dc.Bootstrap) > 0:
		log.Printf("initialized %s from %s (%d ads, snapshot gen %d)",
			f.dataDir, f.corpus, len(dc.Bootstrap), 1)
	case report.Fresh:
		log.Printf("initialized empty durable state in %s", f.dataDir)
	default:
		log.Printf("recovered gen %d: %d snapshot ads + %d WAL records replayed (%d WAL files)",
			report.SnapshotGen, report.SnapshotAds, report.RecordsReplayed, report.WALFiles)
		if f.corpus != "" {
			log.Printf("-corpus %s ignored: %s already holds state (disk wins over flags)",
				f.corpus, f.dataDir)
		}
	}
	if report.Torn {
		log.Printf("WAL tail was torn or corrupt: %s (%d bytes dropped)", report.TornDetail, report.DroppedBytes)
	}
	if report.Degraded() {
		log.Printf("recovery is DEGRADED: %d snapshot generation(s) skipped %v, %d WAL bytes dropped, %d WAL file(s) discarded",
			report.SnapshotsSkipped, report.SkipReasons, report.DroppedBytes, report.DroppedWALFiles)
		if !f.allowPartialRecovery {
			log.Printf("refusing to serve partially recovered state; rerun with -allow-partial-recovery to accept the loss, or inspect with adfsck %s", f.dataDir)
			os.Exit(1)
		}
		log.Printf("continuing under -allow-partial-recovery")
	}
	return ix, report
}

// indexBackend adapts the public adindex.Index to the multiserver
// Backend interface (IDs only on the wire; metadata lives on the ad
// server, as in the paper's Section VII-B split). It has no routing table,
// so an epoch-tagged request is served unchecked.
type indexBackend struct {
	ix     *adindex.Index
	budget int64 // -query-budget; 0 = unlimited cost
}

// AppendMatch implements multiserver.Backend: the wire deadline and the
// local -query-budget bound the enumeration, and truncation/cutoff ride
// back to the front-end as ID-frame flags.
func (b indexBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	if req.Records {
		return nil, errors.New("adserve -tcp-index answers with IDs only: the ad records are on the -tcp-ad server")
	}
	res := b.ix.Match(nil, adindex.Query{Text: req.Query, Budget: adindex.QueryBudget{MaxCost: b.budget, Deadline: req.Deadline}})
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
	return multiserver.AppendIDs(dst, ids, flags), nil
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

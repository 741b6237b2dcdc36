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
//	# two index shard servers, speaking the multiserver TCP frame
//	# protocol alongside HTTP; each answers with its matches' records
//	# (ID, bid, click rate) as its live index holds them, /insert and
//	# /delete included:
//	adserve -corpus shard0.tsv -addr :8078 -tcp-index :9001
//	adserve -corpus shard1.tsv -addr :8079 -tcp-index :9002
//	# fault-tolerant front-end, one round trip per shard: shards
//	# separated by ';', replicas by ','
//	adserve -addr :8077 -shards '127.0.0.1:9001;127.0.0.1:9002' \
//	        -allow-partial -hedge-after 20ms
//
// Elastic (live-reshardable) usage:
//
//	# one process: N-shard cluster over TCP positions + routed front-end;
//	# the shards answer with ad records, one exchange per shard, as
//	# -shards backends do, but the front end asks its own positions
//	# in-process (the same frames through the same server path, no
//	# socket); the TCP positions serve remote clients; split/merge/migrate
//	# run live with epoch-routed atomic cutover
//	adserve -corpus corpus.tsv -elastic 2 -addr :8077
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=split'        # hottest shard
//	curl -X POST 'http://localhost:8077/admin/rebalance?op=migrate&from=0&to=2'
//	curl 'http://localhost:8077/admin/rebalance'                         # status
//
// A flag the selected deployment does not read is refused at start-up;
// the readers table below declares which deployments read each flag.
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
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/rewrite"
	"adindex/internal/server"
)

// flags is every adserve command-line option.
type flags struct {
	corpus, mapping, addr string
	cacheEntries          int
	maxInflight           int
	requestTimeout        time.Duration

	adaptInterval time.Duration

	queryBudget     int64
	shedTargetDelay time.Duration
	quarantineTTL   time.Duration

	rewrite  bool
	synonyms string

	dataDir, walSync     string
	snapshotEvery        int
	allowPartialRecovery bool

	tcpIndex string

	elastic int

	shards       string
	hedgeAfter   time.Duration
	allowPartial bool
}

func defineFlags(fs *flag.FlagSet) *flags {
	f := new(flags)
	fs.StringVar(&f.corpus, "corpus", "", "corpus TSV file (required unless -shards or -data-dir is set)")
	fs.StringVar(&f.mapping, "mapping", "", "optional mapping file from cmd/adopt to apply at startup")
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8077", "HTTP listen address")
	fs.IntVar(&f.cacheEntries, "cache-entries", server.DefaultCacheEntries,
		"result cache capacity in entries (negative disables caching)")
	fs.IntVar(&f.maxInflight, "max-inflight", server.DefaultMaxInflight,
		"max concurrently executing searches; beyond this + queue, requests are shed with 503")
	fs.DurationVar(&f.requestTimeout, "request-timeout", server.DefaultRequestTimeout,
		"per-request deadline covering admission-queue wait and execution")

	// Periodic re-optimization (local index): /optimize on a timer (see
	// DESIGN.md §5.10).
	fs.DurationVar(&f.adaptInterval, "adapt-interval", 0,
		"periodic re-optimization: every interval in which queries arrived, re-plan the layout as /optimize does and install it if it lowers modeled cost (0 disables; local index only)")

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

	// TCP serving: expose the local index over the multiserver frame
	// protocol so this process can back a -shards front-end.
	fs.StringVar(&f.tcpIndex, "tcp-index", "", "also serve the index (matches with their records) over the TCP frame protocol on this address")

	// Elastic (live-reshardable) mode: one process hosting an
	// ElasticCluster with every shard position served over TCP, fronted
	// by its own client on the live route, which asks the positions
	// in-process. Split/merge/migrate run live via
	// POST /admin/rebalance with zero downtime (epoch-routed cutover).
	fs.IntVar(&f.elastic, "elastic", 0,
		"elastic mode: initial shard count for a live-reshardable cluster built from -corpus (0 disables)")

	// Remote (distributed front-end) mode; -allow-partial also applies to
	// the elastic node's own fan-out client.
	fs.StringVar(&f.shards, "shards", "",
		"remote mode: index shard addresses, shards separated by ';', replicas of one shard by ','")
	fs.DurationVar(&f.hedgeAfter, "hedge-after", 0,
		"remote mode: duplicate an in-flight shard query to the next replica after this delay (0 disables)")
	fs.BoolVar(&f.allowPartial, "allow-partial", false,
		"remote mode: serve degraded (partial) results instead of failing when shards are down")
	return f
}

// A mode is a set of deployments, one bit each; a command line selects
// exactly one. The in-memory and -data-dir indexes share one start-up flow
// (runLocal).
type mode uint8

const (
	modeMemory mode = 1 << iota
	modeDurable
	modeElastic
	modeShards

	modeLocal = modeMemory | modeDurable
	modeAny   = modeLocal | modeElastic | modeShards
)

// String names a deployment as a refusal prints it, and a set as its
// members joined by "or".
func (m mode) String() string {
	switch m {
	case modeMemory:
		return "an in-memory index"
	case modeDurable:
		return "-data-dir"
	case modeElastic:
		return "-elastic"
	case modeShards:
		return "-shards"
	}
	var names []string
	for d := modeMemory; d <= modeShards; d <<= 1 {
		if m&d != 0 {
			names = append(names, d.String())
		}
	}
	return strings.Join(names, " or ")
}

func (f *flags) mode() mode {
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

// readers declares, for every flag, the deployments that read it. A flag
// given to any other deployment is refused at start-up, so no flag is
// dropped in silence.
var readers = map[string]mode{
	"corpus":        modeLocal | modeElastic,
	"mapping":       modeLocal,
	"addr":          modeAny,
	"cache-entries": modeLocal, // a remote front end bypasses the reply cache

	"max-inflight":      modeAny,
	"request-timeout":   modeAny,
	"shed-target-delay": modeAny,
	"quarantine-ttl":    modeAny,
	"query-budget":      modeLocal,
	"adapt-interval":    modeLocal,
	"rewrite":           modeLocal,
	"synonyms":          modeLocal,

	"data-dir":               modeDurable,
	"wal-sync":               modeDurable,
	"snapshot-every":         modeDurable,
	"allow-partial-recovery": modeDurable,

	"tcp-index":     modeLocal,
	"elastic":       modeElastic,
	"shards":        modeShards,
	"hedge-after":   modeShards,
	"allow-partial": modeShards | modeElastic,
}

// needs lists the flags a deployment cannot start without.
var needs = []struct {
	flag   string
	mode   mode
	reason string
}{
	{"corpus", modeMemory, "there is nothing else to build the index from"},
	{"corpus", modeElastic, "the cluster is built from it"},
}

// flagMode is one flag given to one deployment.
type flagMode struct {
	flag string
	mode mode
}

// why says why a deployment does not read a flag, where that is more than
// the flag belonging to other deployments. Most are features of the
// single-node adindex.Index, which the -shards front end does not hold and
// the elastic cluster's bare core.Index shards do not have yet (ROADMAP
// "One shard engine"). A shard already holds exactly the ads of its slots
// and is read only through its position's server; making it an
// adindex.Index waits on a fold proportional to the change (ROADMAP
// "Writes proportional to the change"), since a fold today rebuilds the
// whole shard.
var why = map[flagMode]string{
	{"shards", modeElastic}:         "the elastic node hosts its own cluster",
	{"data-dir", modeElastic}:       "the elastic cluster is not durable yet",
	{"rewrite", modeElastic}:        "rewrite runs on a local index",
	{"synonyms", modeElastic}:       "rewrite runs on a local index",
	{"tcp-index", modeElastic}:      "shard positions already serve the TCP index protocol",
	{"adapt-interval", modeElastic}: "re-optimization re-maps a local index; cluster shards sample no workload",
	{"query-budget", modeElastic}:   "cluster shards match without a cost budget, so the bound would be dropped",
	{"mapping", modeElastic}:        "a mapping file describes one index, not a cluster's shards",
	{"hedge-after", modeElastic}:    "each shard position has one replica, so there is nothing to hedge to",

	{"data-dir", modeShards}:       "a remote front-end holds no local index state",
	{"rewrite", modeShards}:        "rewrite runs on a local index",
	{"synonyms", modeShards}:       "rewrite runs on a local index",
	{"adapt-interval", modeShards}: "re-optimization re-maps a local index; a remote front-end holds none",
	{"query-budget", modeShards}:   "the budget is enforced where the index is: set it on the -tcp-index backends",
	{"mapping", modeShards}:        "a remote front-end holds no index to re-map",
	{"tcp-index", modeShards}:      "a remote front-end holds no index to serve",
}

// reason is why deployment m refuses flag name.
func reason(name string, m mode) string {
	if r, ok := why[flagMode{name, m}]; ok {
		return r
	}
	return "only " + readers[name].String() + " reads it"
}

// refuse returns, as an error, the first flag the selected deployment needs
// and was not given, else the first given flag it does not read, or nil.
func refuse(fs *flag.FlagSet, f *flags) error {
	m := f.mode()
	given := make(map[string]bool)
	var unread error
	fs.Visit(func(fl *flag.Flag) {
		given[fl.Name] = true
		if unread == nil && readers[fl.Name]&m == 0 {
			unread = fmt.Errorf("-%s is incompatible with %s: %s", fl.Name, m, reason(fl.Name, m))
		}
	})
	for _, n := range needs {
		if n.mode == m && !given[n.flag] {
			return fmt.Errorf("%s requires -%s: %s", m, n.flag, n.reason)
		}
	}
	return unread
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := refuse(flag.CommandLine, f); err != nil {
		log.Fatal(err)
	}
	cfg := server.Config{
		CacheEntries:    f.cacheEntries,
		MaxInflight:     f.maxInflight,
		RequestTimeout:  f.requestTimeout,
		QueryBudget:     f.queryBudget,
		ShedTargetDelay: f.shedTargetDelay,
		QuarantineTTL:   f.quarantineTTL,
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

// readColumns reads the -corpus file into the loader's columns: the input
// of an -elastic start, and expanded into ads, the seed of a fresh
// -data-dir.
func readColumns(path string) *corpus.Columns {
	start := time.Now()
	file, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	in, err := corpus.ReadColumns(file)
	file.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d ads from %s in %d ms", in.Len(), path, time.Since(start).Milliseconds())
	return in
}

// loadIndex builds the in-memory index from the -corpus file, under the
// -mapping file where one is named, with one build (adindex.Load).
func loadIndex(f *flags, opts adindex.Options) *adindex.Index {
	start := time.Now()
	file, err := os.Open(f.corpus)
	if err != nil {
		log.Fatal(err)
	}
	defer file.Close()
	var mapping io.Reader
	if f.mapping != "" {
		mf, err := os.Open(f.mapping)
		if err != nil {
			log.Fatal(err)
		}
		defer mf.Close()
		mapping = mf
	}
	ix, err := adindex.Load(file, mapping, opts)
	if err != nil {
		log.Fatalf("loading %s: %v", f.corpus, err)
	}
	read := time.Since(start) - time.Duration(ix.BuildSeconds()*float64(time.Second))
	log.Printf("loaded %d ads from %s in %d ms", ix.NumAds(), f.corpus, read.Milliseconds())
	if f.mapping != "" {
		log.Printf("applied offline mapping from %s", f.mapping)
	}
	return ix
}

// indexOptions maps the flags onto the local index's options, loading
// the synonym table when one is named.
func indexOptions(f *flags) adindex.Options {
	var opts adindex.Options
	if f.rewrite || f.synonyms != "" {
		opts.Rewrite = &adindex.RewriteOptions{}
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
		log.Printf("approximate broad match enabled (variants=%d, probes=%d per query)",
			rewrite.DefaultMaxVariants, rewrite.DefaultMaxProbes)
	}
	return opts
}

// runLocal serves a local index, in memory or (-data-dir) durable: bind
// the port first — so /healthz answers and /readyz reports "recovering"
// during a long build or WAL replay —, build the index under the offline
// mapping, or recover it and re-map it, install the index, start
// re-optimization and the TCP protocol servers, and serve until SIGTERM,
// after which the drain flushes the WAL before exit.
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

	var ix *adindex.Index
	var report *durable.RecoveryReport
	if f.dataDir != "" {
		if f.corpus != "" {
			dc.Bootstrap = readColumns(f.corpus).Ads()
		}
		ix, report = openDurable(f, opts, dc)
		if f.mapping != "" {
			// The state the directory holds is built already: re-map it.
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
	} else {
		ix = loadIndex(f, opts)
	}
	st := ix.Stats()
	log.Printf("index ready: %d ads, %d nodes, %d distinct sets, built in %d ms",
		st.NumAds, st.NumNodes, st.DistinctSets, int(ix.BuildSeconds()*1000))
	// The index holds what it keeps of the corpus, its columns in a mapped
	// region. Drop the parsed corpus and collect the build's garbage once,
	// so serving starts from a heap goal of twice what the heap keeps, not
	// of the build.
	dc.Bootstrap = nil
	runtime.GC()
	srv.InstallIndex(ix, report)

	if f.adaptInterval > 0 {
		// Close stops the loop before it closes the store.
		ix.StartAdapt(f.adaptInterval)
		log.Printf("periodic re-optimization every %v", f.adaptInterval)
	}
	if f.tcpIndex != "" {
		ts, err := multiserver.NewIndexServer(f.tcpIndex, multiserver.ServeOpts{}, indexBackend{ix, f.queryBudget})
		if err != nil {
			log.Fatalf("tcp index server: %v", err)
		}
		defer ts.Close()
		log.Printf("serving TCP index protocol on %s", ts.Addr())
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
// Backend interface. It answers a records request — what a -shards front
// end sends — with each match's ID, bid and click rate as the live index
// holds them, writes included, and any other request with the IDs alone.
// It has no routing table, so an epoch-tagged request is served
// unchecked. Its matches are sampled for -adapt-interval like any other
// query the index answers.
type indexBackend struct {
	ix     *adindex.Index
	budget int64 // -query-budget; 0 = unlimited cost
}

// maxPooledBackendAds bounds the match slices backendAds keeps (8192 ads
// of about 120 B, as the HTTP server's copy-out slice): a larger one is
// left to the collector rather than pinned by the pool.
const maxPooledBackendAds = 8 << 10

// backendAds pools the slices AppendMatch copies matches into.
var backendAds = sync.Pool{New: func() any { return new([]adindex.Ad) }}

// AppendMatch implements multiserver.Backend: the wire deadline and the
// local -query-budget bound the enumeration, and truncation rides back to
// the front-end as a frame flag.
func (b indexBackend) AppendMatch(dst []byte, req multiserver.Request) ([]byte, error) {
	pooled := backendAds.Get().(*[]adindex.Ad)
	res := b.ix.Match((*pooled)[:0], adindex.Query{Text: req.Query, Budget: adindex.QueryBudget{MaxCost: b.budget, Deadline: req.Deadline}})
	var flags byte
	if res.Truncated {
		flags |= multiserver.IDFlagTruncated
	}
	if req.Records {
		dst = multiserver.AppendAdRecords(dst, res.Ads, flags)
	} else {
		dst = multiserver.AppendMatchIDs(dst, res.Ads, flags)
	}
	if cap(res.Ads) <= maxPooledBackendAds {
		clear(res.Ads) // a pooled slice pins no ad strings
		*pooled = res.Ads[:0]
		backendAds.Put(pooled)
	}
	return dst, nil
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

// Package server is the production query-serving layer over an
// adindex.Index: a sharded result cache invalidated by the words a write
// touches, admission control with bounded queueing and load shedding, a
// stdlib-only metrics registry with Figure-9-style latency histograms, and
// managed HTTP lifecycle (timeouts, health/readiness probes, signal-driven
// graceful shutdown that drains in-flight requests).
//
// Endpoints:
//
//	GET  /search?q=...&type=broad|exact|phrase   retrieval (cached, admitted)
//	     &rewrite=on|off                         approximate broad match (typo/synonym rewrites)
//	POST /search/batch                           broad-match many queries on one snapshot
//	POST /insert                                 add an ad (JSON body)
//	POST /delete                                 remove an ad (JSON body)
//	GET  /stats                                  index structure statistics
//	POST /optimize                               re-optimize layout from observed queries
//	GET  /metrics                                serving metrics (JSON)
//	GET  /healthz                                liveness (200 while process is up)
//	GET  /readyz                                 readiness (503 while shutting down)
//	GET  /debug/pprof/*                          runtime profiling
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// Config tunes the serving layer. The zero value selects production-safe
// defaults for every knob.
type Config struct {
	// CacheEntries is the total result-cache capacity across shards.
	// 0 selects DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// MaxInflight bounds concurrently executing /search requests; four
	// times as many more may wait for a slot, and requests beyond that are
	// shed with 503. 0 selects DefaultMaxInflight.
	MaxInflight int
	// RequestTimeout is the per-request deadline, covering queue wait and
	// execution. 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// QueryBudget bounds the index work (cost-model units: subset probes
	// plus records scanned) one /search query of any type may perform;
	// exhausted queries return their verified partial results flagged
	// truncated.
	// 0 disables the cost bound (the request deadline still applies).
	QueryBudget int64
	// ShedTargetDelay enables CoDel-style admission shedding: when the
	// minimum queue wait stays above this target for a full interval, new
	// queue entrants are shed with 503 + Retry-After until the queue
	// drains. 0 disables delay shedding (the hard queue bound remains).
	ShedTargetDelay time.Duration
	// QuarantineTTL enables the poison-query quarantine: queries that
	// panic the match path (instantly) or repeatedly blow their budget
	// (DefaultQuarantineStrikes within one TTL) are fast-rejected at
	// admission for this long. 0 disables quarantine.
	QuarantineTTL time.Duration
	// Selection, when non-nil, applies the auction-side filters
	// (exclusion keywords, bid floor, ranking, result cap) to matches
	// before they are returned. The cache holds replies after selection:
	// the selection is fixed for the server's lifetime and must not be
	// mutated (ExcludeShown included) once the server is built.
	Selection *adindex.Selection
	// Logger receives lifecycle log lines; nil selects log.Default().
	Logger *log.Logger

	// backendLossGrace applies to remote-mode servers (NewRemote): when
	// some backend shard has been continuously unreachable for longer
	// than this, /readyz reports 503 so load balancers route around the
	// sustained loss. Transient blips shorter than the grace never flip
	// readiness. 0 selects 10s; tests shorten it.
	backendLossGrace time.Duration
}

// Defaults for Config's zero values.
const (
	DefaultCacheEntries   = 65536
	DefaultCacheShards    = 16
	DefaultMaxInflight    = 256
	DefaultRequestTimeout = time.Second
)

// The serving constants no deployment sets.
const (
	// queuePerSlot is how many requests may wait per execution slot.
	queuePerSlot = 4
	// retryAfter is the Retry-After, in seconds, of every 503.
	retryAfter = "1"
	// readTimeout, writeTimeout and idleTimeout bound the http.Server's
	// connections.
	readTimeout  = 10 * time.Second
	writeTimeout = 30 * time.Second
	idleTimeout  = 120 * time.Second
	// shutdownTimeout bounds the graceful drain in Run: above net/http's
	// 5 s grace for a connection that never sent a request.
	shutdownTimeout = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.backendLossGrace == 0 {
		c.backendLossGrace = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Server wraps an adindex.Index in the serving layer. Create with New,
// start with Start (or Run for signal-managed lifetime), stop with
// Shutdown.
type Server struct {
	// localIx is the local index; nil in remote mode and while a local
	// server built without one has not had InstallIndex called. Atomic
	// because handlers race with InstallIndex.
	localIx atomic.Pointer[adindex.Index]
	// recovery is the durable recovery report installed alongside the
	// index, surfaced in /metrics.
	recovery atomic.Pointer[durable.RecoveryReport]
	// remote is the fan-out client of a remote-mode server; nil means
	// local mode, even before the index is installed. Immutable.
	remote *shard.NetClient
	// elastic, when attached (before Start), surfaces live-resharding
	// status in /metrics and /readyz and enables /admin/rebalance.
	elastic    *shard.ElasticCluster
	cfg        Config
	cache      *Cache
	limiter    *Limiter
	quarantine *Quarantine // nil when Config.QuarantineTTL is 0
	metrics    *Registry
	httpSrv    *http.Server

	lnMu     sync.Mutex
	ln       net.Listener
	serveErr chan error
	ready    atomic.Bool
	// readyPeakRSS is VmHWM when /readyz first answered 200 (markReady).
	readyPeakRSS atomic.Uint64

	// handlerDelay artificially lengthens /search execution; used by
	// shutdown-drain and saturation tests.
	handlerDelay time.Duration
	// panicOn makes /search panic on this exact query string; used by
	// panic-containment tests.
	panicOn string
}

// New builds a local-mode serving layer over ix. The server owns no
// goroutines until Start. ix may be nil: the server then starts with no
// index — /healthz answers 200 and /readyz answers 503 "recovering", so
// orchestrators see a live-but-not-ready process instead of a connection
// refusal during a long build or WAL replay — and index-backed endpoints
// answer 503 until InstallIndex.
func New(ix *adindex.Index, cfg Config) *Server {
	return newServer(ix, nil, cfg)
}

// InstallIndex publishes the index (and, for a durable one, its recovery
// report) on a server built with New(nil, cfg); /readyz flips to 200.
// Safe to call while the server is already accepting requests.
func (s *Server) InstallIndex(ix *adindex.Index, report *durable.RecoveryReport) {
	if report != nil {
		s.recovery.Store(report)
	}
	s.localIx.Store(ix)
	s.markReady()
}

// markReady records the peak resident set the first time the server is
// ready: started, and holding an index unless it is remote.
func (s *Server) markReady() {
	if s.ready.Load() && (s.remote != nil || s.local() != nil) {
		s.readyPeakRSS.CompareAndSwap(0, peakRSS())
	}
}

// local returns the local index, or nil in remote mode / while
// recovering.
func (s *Server) local() *adindex.Index { return s.localIx.Load() }

// NewRemote builds a serving layer that answers /search by fanning out to
// a remote sharded deployment through nc instead of a local index. The
// distributed client's fault tolerance surfaces here: degraded responses
// are flagged and counted, /metrics includes retry/breaker/degradation
// counters, and /readyz turns unready after backend loss sustained for
// 10 s. Mutating and index-introspection endpoints
// (insert/delete/stats/optimize) respond 501, and the result cache is
// bypassed — the remote corpus has no visible mutation epoch to
// invalidate on.
func NewRemote(nc *shard.NetClient, cfg Config) *Server {
	return newServer(nil, nc, cfg)
}

func newServer(ix *adindex.Index, nc *shard.NetClient, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		remote:     nc,
		cfg:        cfg,
		cache:      NewCache(cfg.CacheEntries, DefaultCacheShards),
		limiter:    NewLimiter(cfg.MaxInflight, queuePerSlot*cfg.MaxInflight, cfg.ShedTargetDelay),
		quarantine: NewQuarantine(cfg.QuarantineTTL),
		metrics:    NewRegistry(),
		serveErr:   make(chan error, 1),
	}
	if ix != nil {
		s.localIx.Store(ix)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/search/batch", s.handleSearchBatch)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/rebalance", s.handleRebalance)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{
		Handler:      mux,
		ReadTimeout:  readTimeout,
		WriteTimeout: writeTimeout,
		IdleTimeout:  idleTimeout,
		ErrorLog:     cfg.Logger,
	}
	return s
}

// Metrics returns the server's metrics registry (live counters).
func (s *Server) Metrics() *Registry { return s.metrics }

// Handler returns the server's root handler (useful for tests and for
// mounting under an outer mux).
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Start binds addr and begins serving in a background goroutine. It
// returns a bind error immediately; serve-loop errors surface via Run or
// are logged.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: bind %s: %w", addr, err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.ready.Store(true)
	s.markReady()
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
			return
		}
		s.serveErr <- nil
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start). Safe to call
// from any goroutine, e.g. to discover the port while Run executes.
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: readiness flips to 503 (so load
// balancers stop routing here), the listener closes, and in-flight
// requests drain until done or ctx expires. After the drain, a durable
// index's WAL is flushed to stable storage, so every mutation this
// server acknowledged survives the process exit even under
// durable.SyncNone.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	err := s.httpSrv.Shutdown(ctx)
	if ix := s.local(); ix != nil {
		if serr := ix.SyncDurable(); serr != nil {
			s.cfg.Logger.Printf("wal flush on shutdown: %v", serr)
			if err == nil {
				err = serr
			}
		}
	}
	return err
}

// Run starts the server on addr and blocks until SIGINT/SIGTERM or a
// serve-loop failure, then drains gracefully. It is the main loop of
// cmd/adserve.
func (s *Server) Run(addr string) error {
	// Register the signal handler before binding: once the port is
	// reachable, a SIGTERM is guaranteed to be caught.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.Start(addr); err != nil {
		return err
	}
	s.cfg.Logger.Printf("listening on http://%s", s.Addr())
	return s.awaitShutdown(sigCtx)
}

// AwaitShutdown blocks until SIGINT/SIGTERM or a serve-loop failure,
// then drains gracefully. It is Run for callers that Start the server
// themselves — the local cmd/adserve flow binds the port first (so
// /healthz answers during a long build or recovery), installs the
// index, then parks here.
func (s *Server) AwaitShutdown() error {
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.awaitShutdown(sigCtx)
}

func (s *Server) awaitShutdown(sigCtx context.Context) error {
	select {
	case err := <-s.serveErr:
		return err
	case <-sigCtx.Done():
	}
	s.cfg.Logger.Printf("shutting down: draining in-flight requests (up to %v)", shutdownTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	s.cfg.Logger.Printf("drained cleanly")
	return nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q, matchType, rewriteMode := searchParams(r.URL.RawQuery)
	if strings.TrimSpace(q) == "" {
		s.reject(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	switch matchType {
	case "":
		matchType = "broad"
	case "broad", "exact", "phrase":
	default:
		s.reject(w, http.StatusBadRequest, "type must be broad, exact, or phrase")
		return
	}
	rewrite, ok := rewriteOn(rewriteMode)
	if !ok {
		s.reject(w, http.StatusBadRequest, "rewrite must be on or off")
		return
	}
	if rewrite && matchType != "broad" {
		s.reject(w, http.StatusBadRequest, "rewrite=on requires type=broad")
		return
	}

	// The request's one tokenization, and the quarantine check before the
	// query can occupy an admission slot.
	sc := getSearchScratch()
	defer putSearchScratch(sc)
	fp, ok := s.begin(sc, matchType, q)
	if !ok {
		s.shed(w)
		return
	}

	// Admission: the deadline covers queue wait and execution.
	deadline := start.Add(s.cfg.RequestTimeout)
	if !s.admit(w, r, deadline) {
		return
	}
	defer s.limiter.Release()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	s.metrics.reqCounter(matchType).Add(1)
	// The deferred limiter/in-flight releases above still run after a panic.
	defer s.contain(w, &fp, &q)

	if s.remote != nil {
		if rewrite {
			s.reject(w, http.StatusNotImplemented, "rewrite is not supported in remote (distributed) mode")
			return
		}
		s.searchRemote(w, sc, deadline, fp, q, matchType, start)
		return
	}
	rd, ok := s.open(w, matchType, rewrite, deadline)
	if !ok {
		return
	}

	// The reply is one result — the envelope of /search is its type and
	// took_us fields and the final newline.
	sc.buf = sc.buf[:0]
	out := s.answer(sc, &rd, fp, q)
	if out.fresh.Body != nil {
		cachePut(s.cache, sc.key, rd.view.Epoch(), out.fresh)
	}
	sc.buf = append(sc.buf, `,"took_us":`...)
	sc.buf = strconv.AppendInt(sc.buf, time.Since(start).Microseconds(), 10)
	sc.buf = append(s.closeResult(sc.buf, &out), '\n')
	s.writeBody(w, sc.buf)
	s.metrics.Latency.Observe(float64(time.Since(start)))
}

// begin starts a query of a read request: its one tokenization into sc —
// the cache key, the quarantine fingerprint and the version lookup all come
// from it — and the poison-query check. A fingerprint that recently panicked
// the match path or repeatedly blew its budget is not ok: the caller sheds
// the request.
func (s *Server) begin(sc *searchScratch, matchType, q string) (fp uint64, ok bool) {
	sc.tokenize(matchType, q)
	fp = fingerprint(sc.key)
	if s.quarantine.Check(fp) {
		s.metrics.QuarantineRejects.Add(1)
		return fp, false
	}
	return fp, true
}

// contain is deferred by the read handlers once admitted: a query that
// panics the match path answers 500 and quarantines its fingerprint instead
// of killing the process. fp and q are the query in progress (fp is zero
// before a batch's first).
func (s *Server) contain(w http.ResponseWriter, fp *uint64, q *string) {
	if rec := recover(); rec != nil {
		s.metrics.Panics.Add(1)
		if *fp != 0 {
			s.quarantine.NotePanic(*fp)
		}
		s.cfg.Logger.Printf("search panic on %q (fingerprint quarantined): %v", *q, rec)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// reading is what the queries of one read request share: /search asks one
// query of it, /search/batch up to MaxBatchQueries.
type reading struct {
	ix *adindex.Index
	// view pins every query of the request to one snapshot, so a cache
	// entry is stamped with the state that computed it.
	view adindex.View
	// typ is the "type" field results echo; empty for a batch's, which have
	// none (and are broad).
	typ     string
	rewrite bool
	// deadline covered the queue wait and bounds every query's enumeration.
	deadline time.Time
}

// open pins the local index's current snapshot for a read request, or
// answers why it cannot: no index yet, or rewriting asked of an index built
// without it.
func (s *Server) open(w http.ResponseWriter, typ string, rewrite bool, deadline time.Time) (rd reading, ok bool) {
	ix := s.local()
	if ix == nil {
		s.notReady(w)
		return rd, false
	}
	if rewrite && !ix.RewriteEnabled() {
		s.reject(w, http.StatusBadRequest, "rewrite is not enabled on this index (start with -rewrite)")
		return rd, false
	}
	return reading{ix: ix, view: ix.View(), typ: typ, rewrite: rewrite, deadline: deadline}, true
}

// outcome is what answer leaves its caller beside the bytes it appended:
// the fields that complete the result object, and the reply to store.
type outcome struct {
	// Rewrite mode: each ad with how it was reached, after the
	// discount-aware auction, and the query's expansion stats.
	matches []adindex.Match
	rewrite *rewriteStatsJSON
	// Overload armor: a budget-truncated answer is a verified ID-ordered
	// subset of the full answer, flagged rather than silently short; cutoff
	// surfaces the MaxQueryWords word drop, on a hit as on the miss.
	truncated, cutoff bool
	costSpent         int64
	// fresh is the reply a miss computed, to be stored under sc.key at the
	// view's epoch. Its Body (the ads array in sc.buf) is nil when there is
	// nothing to store: a hit, a rewritten answer — those depend on the
	// vocabulary as well as the key's word set — or a truncated one.
	fresh Cached
}

// answer is the one path a local query takes, whichever endpoint asked it.
// The query has been through begin. Its key is looked up at the newest
// epoch a write touched its words; a miss is matched on the request's view
// (which samples it for the workload; a hit costs the index nothing) under
// Config.QueryBudget and the request deadline (the subset walk of broad,
// phrase and rewritten queries charges them; an exact query is one
// lookup), put through the selection and encoded. The result object goes
// onto sc.buf up to and including the "ads" array — a hit has the cache
// append it while it holds the entry, a miss encodes the array in place —
// and closeResult completes it.
func (s *Server) answer(sc *searchScratch, rd *reading, fp uint64, q string) outcome {
	if s.panicOn != "" && q == s.panicOn {
		panic("injected test panic")
	}
	var reply Cached
	hit := false
	if !rd.rewrite {
		sc.buf, reply, hit = cacheGet(s.cache, sc.buf, sc.key, rd.view.ChangedAt(sc.words), func(dst []byte, matched int) []byte {
			return appendSearchHead(dst, q, rd.typ, matched, true)
		})
	}
	var res adindex.Result
	if !hit {
		clear(sc.ads) // the request's previous query, already encoded
		res = s.match(rd, fp, sc.ads[:0], adindex.Query{
			Text:    q,
			Type:    queryTypes[rd.typ],
			Rewrite: rd.rewrite,
			Budget:  adindex.QueryBudget{MaxCost: s.cfg.QueryBudget, Deadline: rd.deadline},
		})
		sc.ads = res.Ads
		reply = Cached{Matched: len(res.Ads), Cutoff: res.CutoffApplied}
	}
	if s.handlerDelay > 0 {
		time.Sleep(s.handlerDelay)
	}
	out := outcome{truncated: res.Truncated, cutoff: reply.Cutoff, costSpent: res.CostSpent}
	if hit {
		return out
	}
	sc.buf = appendSearchHead(sc.buf, q, rd.typ, reply.Matched, false)
	switch {
	case rd.rewrite:
		sc.buf = append(sc.buf, "null"...)
		out.matches, out.rewrite = s.selectMatches(q, res), newRewriteStatsJSON(res.Rewrite)
	default:
		mark := len(sc.buf)
		sc.buf = s.appendAds(sc.buf, q, res.Ads)
		if !res.Truncated { // never cache a partial answer
			out.fresh = reply
			out.fresh.Body = sc.buf[mark:]
		}
	}
	return out
}

// closeResult completes the result object answer began: the rewrite-mode
// fields and the overload flags that are set, and the closing brace.
func (s *Server) closeResult(dst []byte, out *outcome) []byte {
	if len(out.matches) > 0 {
		dst = s.appendJSON(append(dst, `,"matches":`...), out.matches)
	}
	if out.rewrite != nil {
		dst = s.appendJSON(append(dst, `,"rewrite":`...), out.rewrite)
	}
	return append(appendFlags(dst, out.truncated, out.cutoff, out.costSpent), '}')
}

// appendJSON appends what encoding/json makes of v, for the parts of a
// reply that have no append-form encoder.
func (s *Server) appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		s.cfg.Logger.Printf("encode response: %v", err)
		return append(dst, "null"...)
	}
	return append(dst, b...)
}

// queryTypes maps a result's "type" to the query's; a batch's empty one is
// broad.
var queryTypes = map[string]adindex.QueryType{
	"broad": adindex.Broad, "exact": adindex.Exact, "phrase": adindex.Phrase,
}

// admit takes an admission slot for the request, waiting in the bounded
// queue until deadline if none is free; a context exists only for a
// request that has to wait. It reports whether the slot was obtained (the
// caller must then Release); otherwise it has answered 503.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, deadline time.Time) bool {
	if s.limiter.TryAcquire() {
		return true
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	err := s.limiter.Acquire(ctx)
	if err == nil {
		return true
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverload) {
		s.metrics.Shed.Add(1)
	} else {
		s.metrics.Timeouts.Add(1)
	}
	s.shed(w)
	return false
}

// match is the one place a query is evaluated against the index: one
// View.Match into dst, whose outcome feeds the overload metrics and the
// quarantine (fp is the query's fingerprint).
func (s *Server) match(rd *reading, fp uint64, dst []adindex.Ad, q adindex.Query) adindex.Result {
	res := rd.view.Match(dst, q)
	if q.Rewrite {
		s.metrics.noteRewrite(res.Rewrite)
	}
	s.noteArmor(fp, res.Truncated, res.CutoffApplied)
	return res
}

// noteArmor counts what an answer, local or fanned out, left out. A
// truncated one burned a full budget on its fingerprint, so it is struck:
// enough blowouts inside the TTL window quarantine it.
func (s *Server) noteArmor(fp uint64, truncated, cutoff bool) {
	if cutoff {
		s.metrics.Cutoffs.Add(1)
	}
	if truncated {
		s.metrics.BudgetTruncated.Add(1)
		s.quarantine.NoteBudgetBlown(fp)
	}
}

// appendAds appends the "ads" array of a reply to dst: the query's raw
// matches after the configured selection, encoded. Without a selection no
// match is null (the nil slice the index returns); with one it is [] (the
// empty list SelectAds returns).
func (s *Server) appendAds(dst []byte, q string, matches []adindex.Ad) []byte {
	switch {
	case s.cfg.Selection != nil:
		matches = adindex.SelectAds(q, matches, *s.cfg.Selection)
	case len(matches) == 0:
		matches = nil
	}
	return corpus.AppendAdsJSON(dst, matches)
}

// selectMatches pairs a rewritten result's ads with their match infos and
// applies the configured auction.
func (s *Server) selectMatches(q string, res adindex.Result) []adindex.Match {
	matches := res.Matches()
	if s.cfg.Selection != nil {
		matches = adindex.SelectMatches(q, matches, *s.cfg.Selection)
	}
	return matches
}

// rewriteOn reads the rewrite parameter of the read endpoints: "on" selects
// approximate broad match, "off" or nothing the plain one.
func rewriteOn(mode string) (on, ok bool) {
	return mode == "on", mode == "" || mode == "off" || mode == "on"
}

// reject answers a request the server will not run, and counts it.
func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	s.metrics.BadRequests.Add(1)
	http.Error(w, msg, code)
}

// maxBodyBytes bounds the JSON body of /insert, /delete and /search/batch.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// A larger body is answered 413 and a malformed one 400, both counted.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.reject(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s body exceeds %d bytes", what, maxBodyBytes))
	default:
		s.reject(w, http.StatusBadRequest, "bad "+what+" body: "+err.Error())
	}
	return false
}

// MaxBatchQueries bounds a single /search/batch request.
const MaxBatchQueries = 256

type batchRequest struct {
	Queries []string `json:"queries"`
	// Rewrite selects approximate broad match for the whole batch:
	// "" or "off" for the exact cached path, "on" for typo/synonym
	// rewrites (uncached, requires a rewrite-enabled index).
	Rewrite string `json:"rewrite,omitempty"`
}

// handleSearchBatch answers POST /search/batch: broad match for up to
// MaxBatchQueries queries, each through the same path as /search (begin,
// answer), all on one consistent index snapshot (adindex.View): every miss
// is computed on it, and a hit is an entry no write has outdated (it may
// have been computed on a later snapshot than the batch's own). The batch
// is one request to the limiter and runs under one deadline; a quarantined
// query anywhere in it sheds it, and what it computes is stored when it is
// done, so no query of a batch is served from an earlier one's miss.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.remote != nil {
		http.Error(w, "batch search is not supported in remote (distributed) mode",
			http.StatusNotImplemented)
		return
	}
	var req batchRequest
	if !s.decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > MaxBatchQueries {
		s.reject(w, http.StatusBadRequest, fmt.Sprintf("batch requires 1..%d queries", MaxBatchQueries))
		return
	}
	for _, q := range req.Queries {
		if strings.TrimSpace(q) == "" {
			s.reject(w, http.StatusBadRequest, "batch contains an empty query")
			return
		}
	}
	rewrite, ok := rewriteOn(req.Rewrite)
	if !ok {
		s.reject(w, http.StatusBadRequest, "rewrite must be on or off")
		return
	}

	// One admission slot covers the whole batch (a batch is one request's
	// worth of work from the limiter's perspective).
	deadline := start.Add(s.cfg.RequestTimeout)
	if !s.admit(w, r, deadline) {
		return
	}
	defer s.limiter.Release()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	s.metrics.ReqBroad.Add(uint64(len(req.Queries)))
	var fp uint64
	var q string
	defer s.contain(w, &fp, &q)

	rd, ok := s.open(w, "", rewrite, deadline)
	if !ok {
		return
	}
	epoch := rd.view.Epoch()

	sc := getSearchScratch()
	defer putSearchScratch(sc)
	type stored struct {
		key string
		Cached
	}
	var fresh []stored
	sc.buf = append(sc.buf[:0], `{"epoch":`...)
	sc.buf = strconv.AppendUint(sc.buf, epoch, 10)
	sc.buf = append(sc.buf, `,"results":[`...)
	for i := range req.Queries {
		if i > 0 {
			sc.buf = append(sc.buf, ',')
		}
		q = req.Queries[i]
		if fp, ok = s.begin(sc, "broad", q); !ok {
			s.shed(w)
			return
		}
		out := s.answer(sc, &rd, fp, q)
		if out.fresh.Body != nil {
			fresh = append(fresh, stored{string(sc.key), out.fresh})
		}
		if !out.truncated {
			out.costSpent = 0 // a batch result says what it cost only when that cut it short
		}
		sc.buf = s.closeResult(sc.buf, &out)
	}
	for _, f := range fresh {
		cachePut(s.cache, f.key, epoch, f.Cached)
	}
	sc.buf = append(sc.buf, `],"took_us":`...)
	sc.buf = strconv.AppendInt(sc.buf, time.Since(start).Microseconds(), 10)
	sc.buf = append(sc.buf, "}\n"...)
	s.writeBody(w, sc.buf)
	s.metrics.Latency.Observe(float64(time.Since(start)))
}

// searchRemote answers a /search through the distributed shard client.
// Only broad match exists on the wire protocol; a degraded (partial)
// answer is served with its degradation flags rather than
// failing, and total backend failure maps to 502. The request deadline
// rides the wire to every backend attempt; a query whose budget runs
// out mid-fan-out answers 504.
func (s *Server) searchRemote(w http.ResponseWriter, sc *searchScratch, deadline time.Time, fp uint64, q, matchType string, start time.Time) {
	if matchType != "broad" {
		s.reject(w, http.StatusNotImplemented, "remote serving supports type=broad only")
		return
	}
	res, err := s.remote.QueryResultDeadline(q, deadline)
	if err != nil {
		if errors.Is(err, multiserver.ErrDeadlineExpired) {
			s.metrics.Timeouts.Add(1)
			http.Error(w, "request deadline expired", http.StatusGatewayTimeout)
			return
		}
		s.metrics.BackendErrors.Add(1)
		http.Error(w, "backend query failed: "+err.Error(), http.StatusBadGateway)
		return
	}
	if res.Degraded {
		s.metrics.Degraded.Add(1)
	}
	s.noteArmor(fp, res.Truncated, res.CutoffApplied)
	sc.buf = appendRemoteReply(sc.buf[:0], q, matchType, res, time.Since(start).Microseconds())
	s.writeBody(w, sc.buf)
	s.metrics.Latency.Observe(float64(time.Since(start)))
}

// appendRemoteReply appends the /search reply of a distributed deployment:
// byte for byte what encoding/json emits for the searchResponse that
// carries res — the local envelope around a null ads array, then the
// merged IDs, their metadata, and whichever degradation and budget flags
// are set.
func appendRemoteReply(dst []byte, q, typ string, res *shard.Result, tookUS int64) []byte {
	dst = appendSearchHead(dst, q, typ, len(res.IDs), false)
	dst = append(dst, `null,"took_us":`...)
	dst = strconv.AppendInt(dst, tookUS, 10)
	// Each array is non-empty, so its last separator becomes the bracket.
	if len(res.IDs) > 0 {
		dst = append(dst, `,"ids":[`...)
		for _, id := range res.IDs {
			dst = append(strconv.AppendUint(dst, id, 10), ',')
		}
		dst[len(dst)-1] = ']'
	}
	if len(res.Meta) > 0 {
		dst = append(dst, `,"meta":[`...)
		for _, m := range res.Meta {
			dst = append(dst, `{"BidMicros":`...)
			dst = strconv.AppendInt(dst, m.BidMicros, 10)
			dst = append(dst, `,"ClickRate":`...)
			dst = strconv.AppendUint(dst, uint64(m.ClickRate), 10)
			dst = append(dst, "},"...)
		}
		dst[len(dst)-1] = ']'
	}
	if res.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(res.FailedShards) > 0 {
		dst = append(dst, `,"failed_shards":[`...)
		for _, id := range res.FailedShards {
			dst = append(strconv.AppendInt(dst, int64(id), 10), ',')
		}
		dst[len(dst)-1] = ']'
	}
	return append(appendFlags(dst, res.Truncated, res.CutoffApplied, 0), "}\n"...)
}

// localIndex guards endpoints that need a local index, writing the
// appropriate failure when there is none: 501 in remote mode, 503 while
// a local server has not installed its index yet.
func (s *Server) localIndex(w http.ResponseWriter) *adindex.Index {
	if s.remote != nil {
		http.Error(w, "not supported in remote (distributed) mode", http.StatusNotImplemented)
		return nil
	}
	ix := s.local()
	if ix == nil {
		s.notReady(w)
		return nil
	}
	return ix
}

// notReady answers 503 while durable recovery is still loading the
// index.
func (s *Server) notReady(w http.ResponseWriter) {
	s.metrics.NotReady.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, "index recovering, retry later", http.StatusServiceUnavailable)
}

func (s *Server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
}

type insertRequest struct {
	ID     uint64       `json:"id"`
	Phrase string       `json:"phrase"`
	Meta   adindex.Meta `json:"meta"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req insertRequest
	if !s.decodeBody(w, r, "insert", &req) {
		return
	}
	if req.ID == 0 || strings.TrimSpace(req.Phrase) == "" {
		s.reject(w, http.StatusBadRequest, "insert requires non-zero id and non-empty phrase")
		return
	}
	ad := adindex.NewAd(req.ID, req.Phrase, req.Meta)
	if len(ad.Words) == 0 {
		// "!!!" tokenizes to nothing: no query could ever retrieve it.
		s.reject(w, http.StatusBadRequest, "phrase has no indexable word")
		return
	}
	ix.Insert(ad)
	s.metrics.Mutations.Add(1)
	s.writeJSON(w, map[string]any{"ok": true, "epoch": ix.Epoch()})
}

type deleteRequest struct {
	ID     uint64 `json:"id"`
	Phrase string `json:"phrase"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req deleteRequest
	if !s.decodeBody(w, r, "delete", &req) {
		return
	}
	// The check /insert makes first, and no more: a phrase with no
	// indexable word can be in the corpus, and stays deletable.
	if req.ID == 0 || strings.TrimSpace(req.Phrase) == "" {
		s.reject(w, http.StatusBadRequest, "delete requires non-zero id and non-empty phrase")
		return
	}
	found := ix.Delete(req.ID, req.Phrase)
	s.metrics.Mutations.Add(1)
	s.writeJSON(w, map[string]any{"found": found, "epoch": ix.Epoch()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	s.writeJSON(w, ix.Stats())
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	report, err := ix.Optimize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, report)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	snap.Cache.Hits, snap.Cache.Misses, snap.Cache.Invalidations = s.cache.Stats()
	snap.Cache.Entries = s.cache.Len()
	snap.Cache.Probation = s.cache.probationLen()
	snap.Cache.Ghosts = s.cache.ghostLen()
	snap.Memory.ReadyPeakRSSBytes = s.readyPeakRSS.Load()
	snap.Cache.Bytes = s.cache.Bytes()
	snap.Cache.SharedAds, snap.Cache.SharedBytes = s.cache.sharedAds()
	snap.Overload.Shedding = s.limiter.Shedding()
	snap.Overload.ShedOverload = s.limiter.ShedOverload()
	snap.Overload.ShedQueueFull = s.limiter.ShedQueueFull()
	snap.Overload.QuarantineEntries = s.quarantine.Len()
	snap.Overload.QuarantinePromotion = s.quarantine.Quarantined()
	if ix := s.local(); ix != nil {
		snap.Epoch = ix.Epoch()
		snap.Index = new(IndexSnapshot)
		snap.Index.Folds, snap.Index.FoldSecondsTotal = ix.FoldStats()
		snap.Index.BuildSeconds = ix.BuildSeconds()
		snap.Index.Remaps = ix.Remaps()
		snap.Index.ObservedQueries = ix.ObservedQueries()
		snap.Index.ObservedBytes = ix.ObservedBytes()
		snap.Index.Bytes = ix.IndexBytes()
		if ix.RewriteEnabled() {
			snap.Rewrite = s.metrics.rewriteSnapshot()
		}
		if stats, ok := ix.DurableStats(); ok {
			d := &DurabilitySnapshot{Store: &stats, Recovery: s.recovery.Load()}
			if err := ix.PersistErr(); err != nil {
				d.PersistErr = err.Error()
			}
			snap.Durability = d
		}
	} else if s.remote == nil {
		// Recovering: no index yet, but surface that state explicitly.
		snap.Durability = &DurabilitySnapshot{Recovering: true}
	}
	if s.remote != nil {
		snap.Backends = &BackendsSnapshot{
			Stats:  s.remote.Stats(),
			Health: s.remote.Health(),
		}
	}
	if s.elastic != nil {
		st := s.elastic.Status()
		snap.Elastic = &st
	}
	s.writeJSON(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Local mode: a recovering server is live but not ready until durable
	// recovery installs the index.
	if s.remote == nil && s.local() == nil {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	// Remote mode: sustained backend loss makes this front-end unready so
	// load balancers route around it. Brief blips inside the grace window
	// keep serving (degraded) rather than flapping readiness.
	if s.remote != nil {
		if h := s.remote.Health(); h.DeadFor > s.cfg.backendLossGrace {
			http.Error(w, fmt.Sprintf("backends degraded for %v", h.DeadFor.Round(time.Millisecond)),
				http.StatusServiceUnavailable)
			return
		}
	}
	// An in-flight rebalance does NOT make the node unready: the live
	// handoff keeps serving from the old owner until the atomic cutover,
	// so routing around it would shed capacity for no benefit. The state
	// is annotated so probes can observe it.
	if s.elastic != nil {
		if st := s.elastic.Status(); st.Migrating {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, "ready (rebalancing: %s %d->%d, phase %s, epoch %d)\n",
				st.Kind, st.From, st.To, st.Phase, st.Epoch)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// BackendsSnapshot is the remote-mode section of /metrics: aggregate
// fault-handling counters plus per-shard replica health.
type BackendsSnapshot struct {
	Stats  shard.Stats  `json:"stats"`
	Health shard.Health `json:"health"`
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logger.Printf("encode response: %v", err)
	}
}

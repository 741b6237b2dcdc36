package shard

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/multiserver"
)

// Options tunes NetClient fault tolerance. The zero value selects strict
// semantics (any shard failure fails the query) with default connection
// hardening.
type Options struct {
	// Conn tunes every backend connection (deadline, retries, backoff,
	// breaker). Zero values select multiserver defaults.
	Conn multiserver.ConnOpts
	// AllowPartial enables graceful degradation in QueryResult: a query
	// returns the merged matches of the live shards, flagged Degraded
	// with the failed shards listed, instead of failing outright.
	AllowPartial bool
	// HedgeAfter, when > 0 and a shard has more than one replica, sends
	// a hedged duplicate of an in-flight query to the next replica after
	// this delay; the first success wins. Queries are idempotent, so the
	// only cost is the extra request.
	HedgeAfter time.Duration

	// minLiveShards is the minimum number of shards that must answer for
	// a partial result to be returned (a quorum floor). 0 selects 1;
	// tests raise it.
	minLiveShards int
}

func (o Options) withDefaults() Options {
	if o.minLiveShards <= 0 {
		o.minLiveShards = 1
	}
	return o
}

// Result is the outcome of one fanned-out query.
type Result struct {
	// IDs is the merged, ID-ordered match list from all answering shards.
	IDs []uint64
	// Meta holds one metadata record per ID (aligned with IDs): the
	// record the answering shard holds for that match on a route whose
	// shards serve records, the ad server's otherwise. Nil when nothing
	// matched or MetaMissing.
	Meta []multiserver.AdMeta
	// Degraded is set when anything was missing from the full answer:
	// a shard was skipped or metadata could not be fetched.
	Degraded bool
	// FailedShards lists the shard indexes that did not answer.
	FailedShards []int
	// MetaMissing is set when the ad-metadata server was unreachable and
	// the result is ID-only (zero metadata) — the ID list is still
	// served rather than failing the whole query.
	MetaMissing bool
	// Truncated is set when any answering shard ran out of cost budget
	// and returned a partial (but verified, ID-ordered) match list.
	Truncated bool
	// CutoffApplied is set when any shard dropped query words past its
	// MaxQueryWords bound before matching.
	CutoffApplied bool
}

// replicaSet is one shard's replica connections with failover state.
type replicaSet struct {
	conns     []*multiserver.Conn
	preferred atomic.Int32 // replica index tried first
	deadSince atomic.Int64 // unix-nanos when the whole shard began failing; 0 = live
	lastProbe atomic.Int64 // unix-nanos of the last forced breaker probe round; 0 = never
}

// at returns the index of the k-th replica to try when the preference
// order starts at replica first (a snapshot of rs.preferred).
func (rs *replicaSet) at(first, k int) int { return (first + k) % len(rs.conns) }

func (rs *replicaSet) markLive() { rs.deadSince.Store(0) }
func (rs *replicaSet) markDead() {
	rs.deadSince.CompareAndSwap(0, time.Now().UnixNano())
}

// deadFor returns how long the shard has had no answering replica
// (0 when live).
func (rs *replicaSet) deadFor() time.Duration {
	t := rs.deadSince.Load()
	if t == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - t)
}

// shardReq is what every attempt of one fanned-out query sends and
// expects back: the request body (tags, then query text), whether it asks
// for records — the answer is then a record frame, anything else an error
// — and the query's deadline (zero for none).
type shardReq struct {
	body     []byte
	records  bool
	deadline time.Time
}

// answer is one shard's decoded reply: the matching IDs and, to a records
// request, their metadata, index for index.
type answer struct {
	ids   []uint64
	meta  []multiserver.AdMeta
	flags byte
}

// ask runs one exchange with c, decoding the reply into the buffers of
// into from their start.
func (req shardReq) ask(c *multiserver.Conn, into answer) (answer, error) {
	var err error
	if req.records {
		into.ids, into.meta, into.flags, err = c.ExchangeRecords(into.ids[:0], into.meta[:0], req.body, req.deadline)
	} else {
		into.ids, into.flags, err = c.ExchangeIDs(into.ids[:0], req.body, req.deadline)
	}
	if err != nil {
		return answer{}, err
	}
	return into, nil
}

// decode parses the reply bytes of a forced probe.
func (req shardReq) decode(resp []byte) (a answer, err error) {
	if req.records {
		a.ids, a.meta, a.flags, err = multiserver.DecodeRecords(resp)
	} else {
		a.ids, a.flags, err = multiserver.DecodeIDsFlags(resp)
	}
	return a, err
}

// probeThrough forces one attempt per replica past their open breakers,
// in preference order. It exists for the case where every replica
// fast-failed breaker-open, so the query is about to fail without a
// single byte having been transmitted: that verdict reflects breaker
// state from up to a cooldown ago, not the shard's current health — a
// replica can heal within the cooldown while its peers die (a rolling
// partition does exactly this). Rounds are rate-limited to one per
// breaker cooldown per replica set, so a genuinely dead shard keeps
// failing fast and costs at most one extra timeout per cooldown.
//
// probed is false when the round was skipped by the rate limit (the
// caller keeps its fast-fail error); otherwise the answer and err carry
// the round's outcome, with the same stale-epoch semantics as a normal
// attempt.
func (rs *replicaSet) probeThrough(req shardReq) (got answer, err error, probed bool) {
	cd := rs.conns[0].Breaker().Cooldown()
	now := time.Now().UnixNano()
	last := rs.lastProbe.Load()
	if last != 0 && now-last < int64(cd) {
		return answer{}, nil, false
	}
	if !rs.lastProbe.CompareAndSwap(last, now) {
		// Another goroutine owns this round; let it probe.
		return answer{}, nil, false
	}
	var lastErr error
	first := int(rs.preferred.Load())
	for k := range rs.conns {
		ci := rs.at(first, k)
		resp, perr := rs.conns[ci].ProbeDeadline(req.body, req.deadline)
		if perr == nil {
			got, derr := req.decode(resp)
			if derr != nil {
				lastErr = derr
				continue
			}
			rs.preferred.Store(int32(ci))
			return got, nil, true
		}
		if errors.Is(perr, multiserver.ErrStaleEpoch) || errors.Is(perr, multiserver.ErrDeadlineExpired) {
			return answer{}, perr, true
		}
		lastErr = perr
	}
	return answer{}, lastErr, true
}

// NetClient fans broad-match queries out to several remote index shards
// (multiserver protocol) and merges their ID lists — the networked form
// of the Section VII-B split deployment, hardened for production: each
// shard may have several replica addresses with automatic failover and
// optional request hedging, every connection carries deadlines, bounded
// retries, and a circuit breaker, and (with Options.AllowPartial) the
// client degrades gracefully instead of failing the whole query.
//
// Where the metadata comes from is the route's to say. On a route whose
// shards serve records every attempt asks for them, the matches arrive
// with their metadata, and the ad server is never contacted: one round
// trip per shard. Otherwise the shards are index servers answering IDs,
// and a second hop fetches the merged list's metadata from the ad server.
type NetClient struct {
	ad     *multiserver.Conn // nil when dialed without an ad server
	adDead atomic.Int64      // unix-nanos since the ad server stopped answering
	opts   Options

	// The shard topology is a Route published through fetch (see
	// DialRoute); connections are cached by address across routes.
	fetch     func() (*Route, error)
	route     atomic.Pointer[routeState]
	connMu    sync.Mutex
	connCache map[string]*multiserver.Conn

	degraded     atomic.Uint64
	hedges       atomic.Uint64
	refreshes    atomic.Uint64
	staleRetries atomic.Uint64
	probes       atomic.Uint64
}

// Close closes all shard and ad-server connections.
func (nc *NetClient) Close() {
	for _, c := range nc.allConns() {
		c.Close()
	}
	if nc.ad != nil {
		nc.ad.Close()
	}
}

// NumShards returns the number of shard positions in the current route.
func (nc *NetClient) NumShards() int { return nc.route.Load().route.Table.NumShards }

// allConns returns every connection the client has ever opened (retired
// shards' connections stay cached for stats and reuse).
func (nc *NetClient) allConns() []*multiserver.Conn {
	nc.connMu.Lock()
	defer nc.connMu.Unlock()
	out := make([]*multiserver.Conn, 0, len(nc.connCache))
	for _, c := range nc.connCache {
		out = append(out, c)
	}
	return out
}

// Query runs the query on every shard concurrently and returns the
// merged, ID-ordered match list; the metadata is obtained as QueryResult
// obtains it and dropped. Strict semantics: any shard failure fails the
// query. Use QueryResult for graceful degradation.
func (nc *NetClient) Query(query string) ([]uint64, error) {
	res, err := nc.run(query, time.Time{}, false)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// QueryResult runs the query with the client's configured degradation
// semantics: with Options.AllowPartial, dead shards are skipped (the
// result is flagged Degraded) and an unreachable ad server yields an
// ID-only result instead of an error.
func (nc *NetClient) QueryResult(query string) (*Result, error) {
	return nc.run(query, time.Time{}, nc.opts.AllowPartial)
}

// QueryResultDeadline is QueryResult carrying a request deadline: every
// shard attempt (including failover and hedged duplicates) is tagged
// with the budget remaining at send time, a backend whose budget is
// spent answers a typed expired frame instead of burning a CPU slot,
// and the whole query fails with multiserver.ErrDeadlineExpired once
// the budget is gone. A zero deadline behaves exactly like QueryResult.
func (nc *NetClient) QueryResultDeadline(query string, deadline time.Time) (*Result, error) {
	return nc.run(query, deadline, nc.opts.AllowPartial)
}

// run fans the query out under the current route. A versioned route
// tags the query with its epoch, and a stale-epoch rejection — the
// deployment rebalanced past it — is absorbed by refreshing the route
// and retrying the whole query, without burning retry or breaker budget
// (the backend was alive and correct to refuse): a client that lags a
// clean cutover pays one extra round trip plus one route fetch, never a
// failure. A frozen route (epoch 0) sends the bare query text and is
// never stale.
func (nc *NetClient) run(query string, deadline time.Time, partial bool) (*Result, error) {
	sc := fanPool.Get().(*fanScratch)
	defer sc.release()
	for refresh := 0; ; refresh++ {
		st := nc.route.Load()
		epoch, records := st.route.Table.Epoch, st.route.Records
		sc.req = sc.req[:0]
		switch {
		case records:
			sc.req = multiserver.AppendRecordsRequest(sc.req, epoch, nil)
		case epoch != 0:
			sc.req = multiserver.AppendEpochRequest(sc.req, epoch, nil)
		}
		sc.req = multiserver.AppendQueryText(sc.req, query)
		res, err := nc.fanOut(sc, st, shardReq{body: sc.req, records: records, deadline: deadline}, partial)
		if err == nil || epoch == 0 || !errors.Is(err, multiserver.ErrStaleEpoch) {
			return res, err
		}
		if refresh >= maxEpochRefreshes {
			return nil, fmt.Errorf("shard: route still stale after %d refreshes: %w", refresh, err)
		}
		nc.staleRetries.Add(1)
		if rerr := nc.refreshRoute(); rerr != nil {
			return nil, fmt.Errorf("shard: route refresh after stale epoch: %w", rerr)
		}
	}
}

// fanScratch is the working set of one fanned-out query: the request
// bytes every shard receives, one reply slot per shard, the merge's
// cursors, and the group the shard goroutines are waited on. It is
// pooled, so a steady stream of queries allocates only what their Results
// keep.
type fanScratch struct {
	req   []byte
	slots []shardReply
	heads []int
	wg    sync.WaitGroup
}

// shardReply is one shard's answer or failure. The answer's buffers keep
// their backing arrays from query to query: each query decodes into them
// from the start.
type shardReply struct {
	answer
	err error
}

var fanPool = sync.Pool{New: func() any { return new(fanScratch) }}

// maxKeptIDs is the largest per-shard reply buffer a pooled scratch
// holds on to.
const maxKeptIDs = 1 << 16

func (sc *fanScratch) release() {
	for i := range sc.slots {
		slot := &sc.slots[i]
		if cap(slot.ids) > maxKeptIDs {
			slot.ids, slot.meta = nil, nil
		}
		slot.err = nil
	}
	fanPool.Put(sc)
}

// fanOut sends req to every active shard of st — the last on the calling
// goroutine, the others on one goroutine each — and merges the answers. A
// stale-epoch rejection from any shard is returned as-is (highest
// priority) so run can refresh and retry the whole query.
func (nc *NetClient) fanOut(sc *fanScratch, st *routeState, req shardReq, partial bool) (*Result, error) {
	shardIDs := st.active
	sc.slots = slices.Grow(sc.slots[:0], len(shardIDs))[:len(shardIDs)]
	slots := sc.slots
	for i, id := range shardIDs {
		if i == len(shardIDs)-1 {
			nc.askShard(&slots[i], st.shards[id], req)
			break
		}
		sc.wg.Add(1)
		go func(slot *shardReply, rs *replicaSet) {
			defer sc.wg.Done()
			nc.askShard(slot, rs, req)
		}(&slots[i], st.shards[id])
	}
	sc.wg.Wait()

	res := &Result{}
	live, matched := 0, 0
	var firstErr error
	for i := range slots {
		slot := &slots[i]
		if err := slot.err; err != nil {
			if errors.Is(err, multiserver.ErrStaleEpoch) {
				return nil, err
			}
			if errors.Is(err, multiserver.ErrDeadlineExpired) {
				// The whole query is out of budget: no point serving the
				// shards that squeaked in under the wire.
				return nil, err
			}
			res.FailedShards = append(res.FailedShards, shardIDs[i])
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", shardIDs[i], err)
			}
			continue
		}
		live++
		matched += len(slot.ids)
		if slot.flags&multiserver.IDFlagTruncated != 0 {
			res.Truncated = true
		}
		if slot.flags&multiserver.IDFlagCutoff != 0 {
			res.CutoffApplied = true
		}
	}
	if firstErr != nil && !partial {
		return nil, firstErr
	}
	if live < nc.opts.minLiveShards {
		return nil, fmt.Errorf("shard: only %d/%d shards answered (min %d): %w",
			live, len(shardIDs), nc.opts.minLiveShards, firstErr)
	}
	res.Degraded = len(res.FailedShards) > 0
	if matched > 0 {
		sc.merge(res, matched, req.records)
	}

	// Index servers answered IDs: the metadata is the ad server's, one
	// more hop — which an empty match list does not need.
	if !req.records && matched > 0 {
		meta, err := nc.fetchMeta(res.IDs, req.deadline)
		if err != nil {
			if !partial {
				return nil, err
			}
			// Graceful degradation: the ad server is down, serve IDs with
			// zero metadata rather than failing the query.
			res.MetaMissing = true
			res.Degraded = true
		} else {
			res.Meta = meta
		}
	}
	if res.Degraded {
		nc.degraded.Add(1)
	}
	return res, nil
}

// merge fills res with the slots' matched answers in ID order, metadata
// attached when the shards served records. Equal IDs come out in shard
// order and, within a shard, in the shard's order — the order
// ElasticCluster.Match gives them — so an ID held twice keeps both
// records. A reply that is not ID-ordered is sorted first, not trusted.
func (sc *fanScratch) merge(res *Result, matched int, records bool) {
	slots := sc.slots
	sc.heads = slices.Grow(sc.heads[:0], len(slots))[:len(slots)]
	heads := sc.heads
	for i := range slots {
		heads[i] = 0
		if !slices.IsSorted(slots[i].ids) {
			sort.Stable(byID(slots[i].answer))
		}
	}
	res.IDs = make([]uint64, 0, matched)
	if records {
		res.Meta = make([]multiserver.AdMeta, 0, matched)
	}
	for len(res.IDs) < matched {
		next := -1
		for i := range slots {
			if heads[i] < len(slots[i].ids) && (next < 0 || slots[i].ids[heads[i]] < slots[next].ids[heads[next]]) {
				next = i
			}
		}
		slot, h := &slots[next], heads[next]
		res.IDs = append(res.IDs, slot.ids[h])
		if records {
			res.Meta = append(res.Meta, slot.meta[h])
		}
		heads[next]++
	}
}

// byID sorts an answer by ID, carrying the metadata along when it has any.
type byID answer

func (a byID) Len() int           { return len(a.ids) }
func (a byID) Less(i, j int) bool { return a.ids[i] < a.ids[j] }
func (a byID) Swap(i, j int) {
	a.ids[i], a.ids[j] = a.ids[j], a.ids[i]
	if a.meta != nil {
		a.meta[i], a.meta[j] = a.meta[j], a.meta[i]
	}
}

// askShard fills slot with rs's answer to req, decoded into the slot's
// own buffers.
func (nc *NetClient) askShard(slot *shardReply, rs *replicaSet, req shardReq) {
	slot.answer, slot.err = nc.queryShard(rs, req, slot.answer)
}

// queryShard tries the shard's replicas in preference order, failing
// over on error; with hedging enabled, a duplicate request goes to the
// next replica after Options.HedgeAfter and the first success wins.
// A stale-epoch rejection short-circuits: the shard is alive, its
// replicas move epochs in lockstep, so failing over would only repeat
// the rejection — the caller must refresh its routing table instead.
// The answer is decoded into the buffers of into when one attempt at a
// time runs; hedged attempts overlap and outlive the query, so they get
// buffers (and a copy of the request body) of their own.
func (nc *NetClient) queryShard(rs *replicaSet, req shardReq, into answer) (answer, error) {
	first, n := int(rs.preferred.Load()), len(rs.conns)
	if nc.opts.HedgeAfter <= 0 || n == 1 {
		var lastErr error
		sawFastFail := false
		for k := 0; k < n; k++ {
			ci := rs.at(first, k)
			got, err := req.ask(rs.conns[ci], into)
			if err == nil {
				rs.preferred.Store(int32(ci))
				rs.markLive()
				return got, nil
			}
			if errors.Is(err, multiserver.ErrStaleEpoch) || errors.Is(err, multiserver.ErrDeadlineExpired) {
				rs.markLive()
				return answer{}, err
			}
			if errors.Is(err, multiserver.ErrBreakerOpen) {
				sawFastFail = true
			}
			lastErr = err
		}
		return nc.failShard(rs, req, lastErr, sawFastFail)
	}

	type attempt struct {
		ci  int
		got answer
		err error
	}
	req.body = bytes.Clone(req.body)
	ch := make(chan attempt, n)
	launch := func(ci int) {
		go func() {
			got, err := req.ask(rs.conns[ci], answer{})
			ch <- attempt{ci, got, err}
		}()
	}
	launch(first)
	launched, outstanding := 1, 1
	timer := time.NewTimer(nc.opts.HedgeAfter)
	defer timer.Stop()
	var lastErr error
	sawFastFail := false
	for outstanding > 0 {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				rs.preferred.Store(int32(a.ci))
				rs.markLive()
				return a.got, nil
			}
			if errors.Is(a.err, multiserver.ErrStaleEpoch) || errors.Is(a.err, multiserver.ErrDeadlineExpired) {
				rs.markLive()
				return answer{}, a.err
			}
			if errors.Is(a.err, multiserver.ErrBreakerOpen) {
				sawFastFail = true
			}
			lastErr = a.err
			if launched < n {
				launch(rs.at(first, launched))
				launched++
				outstanding++
			}
		case <-timer.C:
			if launched < n {
				nc.hedges.Add(1)
				launch(rs.at(first, launched))
				launched++
				outstanding++
			}
		}
	}
	return nc.failShard(rs, req, lastErr, sawFastFail)
}

// failShard finishes a shard query whose every replica attempt failed.
// When any of those failures was a breaker-open fast-fail, that replica
// was never actually contacted — the verdict rests on cached breaker
// state, not the shard's current health — so one rate-limited forced
// probe round runs before the failure is allowed to stand (see
// replicaSet.probeThrough).
func (nc *NetClient) failShard(rs *replicaSet, req shardReq, lastErr error, sawFastFail bool) (answer, error) {
	if sawFastFail {
		if got, err, probed := rs.probeThrough(req); probed {
			nc.probes.Add(1)
			if err == nil {
				rs.markLive()
				return got, nil
			}
			if errors.Is(err, multiserver.ErrStaleEpoch) || errors.Is(err, multiserver.ErrDeadlineExpired) {
				rs.markLive()
				return answer{}, err
			}
			lastErr = err
		}
	}
	rs.markDead()
	return answer{}, lastErr
}

// fetchMeta is the second hop of a route whose shards answer IDs only.
func (nc *NetClient) fetchMeta(ids []uint64, deadline time.Time) ([]multiserver.AdMeta, error) {
	if nc.ad == nil {
		return nil, errors.New("shard: ad metadata fetch: the route's shards serve no records and the client has no ad server")
	}
	meta, err := nc.ad.ExchangeMeta(ids, deadline)
	if err != nil {
		nc.adDead.CompareAndSwap(0, time.Now().UnixNano())
		return nil, fmt.Errorf("shard: ad metadata fetch: %w", err)
	}
	nc.adDead.Store(0)
	return meta, nil
}

// ReplicaHealth is one replica's breaker view.
type ReplicaHealth struct {
	Addr    string `json:"addr"`
	Breaker string `json:"breaker"`
}

// ShardHealth is one shard's liveness view.
type ShardHealth struct {
	Shard     int             `json:"shard"`
	Replicas  []ReplicaHealth `json:"replicas"`
	Live      bool            `json:"live"`
	DeadForMS int64           `json:"dead_for_ms,omitempty"`
}

// Health summarizes backend liveness for readiness probes: a shard is
// dead when its last full-fan-out attempt found no answering replica.
type Health struct {
	Shards     []ShardHealth `json:"shards"`
	LiveShards int           `json:"live_shards"`
	// AdBreaker is the ad-server connection's breaker, absent when the
	// client has no ad server; AdLive is false while that server is not
	// answering.
	AdBreaker string `json:"ad_breaker,omitempty"`
	AdLive    bool   `json:"ad_live"`
	// DeadFor is the longest continuous outage across shards and the ad
	// server (0 when everything is answering) — the signal a readiness
	// probe should threshold to stop routing to a client whose backends
	// are gone.
	DeadFor time.Duration `json:"-"`
}

// Health reports current backend liveness over the shards the current
// route queries: a retired shard is never asked again, so it is neither
// live nor dead.
func (nc *NetClient) Health() Health {
	var h Health
	st := nc.route.Load()
	for _, id := range st.active {
		rs := st.shards[id]
		sh := ShardHealth{Shard: id, Live: rs.deadSince.Load() == 0}
		for _, c := range rs.conns {
			sh.Replicas = append(sh.Replicas, ReplicaHealth{
				Addr:    c.Addr(),
				Breaker: c.Breaker().State().String(),
			})
		}
		if d := rs.deadFor(); d > 0 {
			sh.DeadForMS = d.Milliseconds()
			if d > h.DeadFor {
				h.DeadFor = d
			}
		}
		if sh.Live {
			h.LiveShards++
		}
		h.Shards = append(h.Shards, sh)
	}
	h.AdLive = nc.adDead.Load() == 0
	if !h.AdLive {
		if d := time.Duration(time.Now().UnixNano() - nc.adDead.Load()); d > h.DeadFor {
			h.DeadFor = d
		}
	}
	if nc.ad != nil {
		h.AdBreaker = nc.ad.Breaker().State().String()
	}
	return h
}

// Stats aggregates the fault-handling counters of every connection.
type Stats struct {
	Retries      uint64 `json:"retries"`
	Reconnects   uint64 `json:"reconnects"`
	BreakerOpens uint64 `json:"breaker_opens"`
	FastFails    uint64 `json:"breaker_fast_fails"`
	Degraded     uint64 `json:"degraded"`
	Hedges       uint64 `json:"hedged_requests"`
	// RouteRefreshes counts route fetches, the one at dial included (a
	// frozen route stays at 1); StaleRetries counts queries that hit a
	// stale-epoch rejection and were retried after a refresh.
	RouteRefreshes uint64 `json:"route_refreshes,omitempty"`
	StaleRetries   uint64 `json:"stale_retries,omitempty"`
	// BreakerProbes counts forced probe rounds: queries whose every
	// replica fast-failed breaker-open and which pushed one attempt
	// through anyway rather than fail on stale breaker state.
	BreakerProbes uint64 `json:"breaker_probes,omitempty"`
}

// Stats returns a snapshot of the client's fault-handling counters
// (across every connection ever opened, including retired shards').
func (nc *NetClient) Stats() Stats {
	var s Stats
	add := func(c *multiserver.Conn) {
		cs := c.Stats()
		s.Retries += cs.Retries
		s.Reconnects += cs.Reconnects
		s.FastFails += cs.FastFails
		s.BreakerOpens += c.Breaker().Opens()
	}
	for _, c := range nc.allConns() {
		add(c)
	}
	if nc.ad != nil {
		add(nc.ad)
	}
	s.Degraded = nc.degraded.Load()
	s.Hedges = nc.hedges.Load()
	s.RouteRefreshes = nc.refreshes.Load()
	s.StaleRetries = nc.staleRetries.Load()
	s.BreakerProbes = nc.probes.Load()
	return s
}

// Fault-tolerance tests for NetClient: replica failover, hedging,
// graceful degradation, quorum floors, and the replica-kill-mid-load
// acceptance scenario — all faults injected deterministically through
// internal/faultnet.
package shard

import (
	"reflect"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
)

// fastConn is a ConnOpts tuned for fault tests: tight deadline, quick
// backoff, a breaker that opens after 3 failures and half-opens fast.
func fastConn() multiserver.ConnOpts {
	return multiserver.ConnOpts{
		Timeout:          300 * time.Millisecond,
		MaxRetries:       1,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
		Seed:             3,
	}
}

// deployment is a two-shard cluster with one index server per shard and
// a shared ad server, for fault tests to rearrange.
type deployment struct {
	c       *corpus.Corpus
	cluster *ElasticCluster
	shards  []*multiserver.Server
	ad      *multiserver.Server
}

func deploy(t *testing.T, nAds, nShards int) *deployment {
	t.Helper()
	d := &deployment{c: corpus.Generate(corpus.GenOptions{NumAds: nAds, Seed: 138})}
	var err error
	d.cluster = newStatic(t, d.c.Ads, nShards)
	for i := 0; i < nShards; i++ {
		srv := d.shardServer(t, i)
		t.Cleanup(func() { srv.Close() })
		d.shards = append(d.shards, srv)
	}
	d.ad, err = multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, d.c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.ad.Close() })
	return d
}

// shardServer starts an additional index server over shard i (a replica).
func (d *deployment) shardServer(t *testing.T, i int) *multiserver.Server {
	t.Helper()
	return plainServer(t, d.cluster, i)
}

// shardIDs returns the IDs shard i alone matches for the query.
func (d *deployment) shardIDs(q string, i int) []uint64 {
	return ids(d.cluster.shards[i].BroadMatchText(q, nil))
}

// pickQuery finds a query whose matches span both shards of a two-shard
// deployment, so partial results are observably different from full ones.
func (d *deployment) pickQuery(t *testing.T) string {
	t.Helper()
	for _, ad := range d.c.Ads {
		q := joinWords(ad.Words)
		if len(d.shardIDs(q, 0)) > 0 && len(d.shardIDs(q, 1)) > 0 {
			return q
		}
	}
	t.Fatal("no query spans both shards")
	return ""
}

func TestPartialResultWithDeadShard(t *testing.T) {
	d := deploy(t, 800, 2)
	q := d.pickQuery(t)
	nc, err := DialReplicaShards(
		[][]string{{d.shards[0].Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: fastConn(), AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	full, err := nc.QueryResult(q)
	if err != nil || full.Degraded {
		t.Fatalf("healthy query: res=%+v err=%v", full, err)
	}
	if len(full.Meta) != len(full.IDs) {
		t.Fatalf("meta misaligned: %d meta for %d ids", len(full.Meta), len(full.IDs))
	}

	// Kill shard 0: the query must degrade to shard 1's matches, flagged,
	// with metadata still attached — not fail, and not silently pretend to
	// be complete.
	d.shards[0].Close()
	res, err := nc.QueryResult(q)
	if err != nil {
		t.Fatalf("partial query failed hard: %v", err)
	}
	if !res.Degraded {
		t.Error("partial result not flagged Degraded")
	}
	if !reflect.DeepEqual(res.FailedShards, []int{0}) {
		t.Errorf("FailedShards = %v, want [0]", res.FailedShards)
	}
	if want := d.shardIDs(q, 1); !reflect.DeepEqual(res.IDs, want) {
		t.Errorf("degraded IDs = %v, want shard 1's %v", res.IDs, want)
	}
	if res.MetaMissing || len(res.Meta) != len(res.IDs) {
		t.Errorf("degraded result lost metadata: missing=%v meta=%d ids=%d",
			res.MetaMissing, len(res.Meta), len(res.IDs))
	}
	if nc.Stats().Degraded == 0 {
		t.Error("degraded counter not incremented")
	}
	// Strict Query on the same client still fails — degradation is opt-in
	// per call path.
	if _, err := nc.Query(q); err == nil {
		t.Error("strict Query succeeded with a dead shard")
	}
}

func TestReplicaFailover(t *testing.T) {
	d := deploy(t, 600, 2)
	q := d.pickQuery(t)
	replica := d.shardServer(t, 0) // second replica of shard 0
	defer replica.Close()
	nc, err := DialReplicaShards(
		[][]string{{d.shards[0].Addr(), replica.Addr()}, {d.shards[1].Addr()}},
		d.ad.Addr(), Options{Conn: fastConn()})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	want, err := nc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the preferred replica: strict queries must keep succeeding with
	// identical results via the surviving replica.
	d.shards[0].Close()
	for i := 0; i < 3; i++ {
		got, err := nc.Query(q)
		if err != nil {
			t.Fatalf("query %d after replica death: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("failover changed results: %v vs %v", got, want)
		}
	}
	// After the first failover the client prefers the live replica, so the
	// dead one is no longer probed on every query.
	if h := nc.Health(); h.LiveShards != 2 {
		t.Errorf("LiveShards = %d, want 2", h.LiveShards)
	}
	if replica.Requests() < 3 {
		t.Errorf("surviving replica served %d requests, want >= 3", replica.Requests())
	}
}

func TestLazyReplicaDialAtFailover(t *testing.T) {
	// Shard 0 lists an unreachable replica first: dialing must still
	// succeed (one reachable replica suffices) and queries fail over past
	// the dead address.
	d := deploy(t, 400, 2)
	q := d.pickQuery(t)
	nc, err := DialReplicaShards(
		[][]string{{"127.0.0.1:1", d.shards[0].Addr()}, {d.shards[1].Addr()}},
		d.ad.Addr(), Options{Conn: fastConn()})
	if err != nil {
		t.Fatalf("dial with one dead replica: %v", err)
	}
	defer nc.Close()
	got, err := nc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no matches through surviving replica")
	}
}

func TestMetaMissingWhenAdServerDown(t *testing.T) {
	d := deploy(t, 400, 2)
	q := d.pickQuery(t)
	nc, err := DialReplicaShards(
		[][]string{{d.shards[0].Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: fastConn(), AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	full, err := nc.QueryResult(q)
	if err != nil {
		t.Fatal(err)
	}
	d.ad.Close()
	res, err := nc.QueryResult(q)
	if err != nil {
		t.Fatalf("ad-server outage failed the query: %v", err)
	}
	if !res.MetaMissing || !res.Degraded {
		t.Errorf("ID-only result not flagged: %+v", res)
	}
	if !reflect.DeepEqual(res.IDs, full.IDs) {
		t.Errorf("ID-only result changed matches: %v vs %v", res.IDs, full.IDs)
	}
	if res.Meta != nil {
		t.Errorf("MetaMissing result carries metadata: %v", res.Meta)
	}
	if h := nc.Health(); h.AdLive {
		t.Error("health still reports the ad server live")
	}
}

func TestMinLiveShardsQuorum(t *testing.T) {
	d := deploy(t, 400, 2)
	q := d.pickQuery(t)
	nc, err := DialReplicaShards(
		[][]string{{d.shards[0].Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: fastConn(), AllowPartial: true, minLiveShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.QueryResult(q); err != nil {
		t.Fatal(err)
	}
	d.shards[0].Close()
	// Below the quorum floor even partial mode refuses to answer.
	if _, err := nc.QueryResult(q); err == nil {
		t.Fatal("result below the minLiveShards quorum")
	}
}

func TestHedgedRequestBeatsSlowReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-schedule test skipped in -short mode")
	}
	d := deploy(t, 400, 2)
	q := d.pickQuery(t)
	// Replica 0 of shard 0 answers, but only after 150ms; replica 1 is
	// fast. With hedging at 20ms the client should duplicate the request
	// and take replica 1's answer early.
	slow, err := faultnet.New(d.shards[0].Addr(), &faultnet.Random{Delay: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast := d.shardServer(t, 0)
	defer fast.Close()
	nc, err := DialReplicaShards(
		[][]string{{slow.Addr(), fast.Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: fastConn(), HedgeAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	t0 := time.Now()
	got, err := nc.Query(q)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no matches")
	}
	if nc.Stats().Hedges == 0 {
		t.Error("no hedged request recorded")
	}
	if elapsed >= 150*time.Millisecond {
		t.Errorf("hedged query took %v, slower than the slow replica", elapsed)
	}
	// The winning replica becomes preferred: the next query skips the slow
	// one entirely.
	before := slow.Exchanges()
	if _, err := nc.Query(q); err != nil {
		t.Fatal(err)
	}
	if nc.Stats().Hedges != 1 {
		t.Errorf("Hedges = %d after preferring fast replica, want 1", nc.Stats().Hedges)
	}
	if slow.Exchanges() != before {
		t.Error("slow replica still queried after losing the hedge")
	}
}

// TestReplicaKillMidLoadAcceptance is the PR's acceptance scenario: a
// deterministic query load against a replicated deployment where shard
// 0's only replica is killed mid-load and later restored. Requirements:
// zero client-visible hard failures throughout, degraded responses
// flagged while the replica is down, the circuit breaker opens and then
// half-opens, and full results resume once the replica returns.
func TestReplicaKillMidLoadAcceptance(t *testing.T) {
	d := deploy(t, 1000, 2)
	q := d.pickQuery(t)
	proxy, err := faultnet.New(d.shards[0].Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opts := fastConn()
	nc, err := DialReplicaShards(
		[][]string{{proxy.Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: opts, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	fullIDs := clusterIDs(t, d.cluster, q)
	partialIDs := d.shardIDs(q, 1)
	shard0Breaker := func() *multiserver.Breaker {
		return nc.route.Load().shards[0].conns[0].Breaker()
	}

	const (
		total   = 30
		killAt  = 10
		healAt  = 20
		degrade = killAt // first possibly-degraded response index
	)
	var sawDegraded, sawOpen int
	for i := 0; i < total; i++ {
		if i == killAt {
			proxy.Partition()
		}
		if i == healAt {
			proxy.Heal()
			// Let the breaker cooldown lapse so the half-open probe can run.
			time.Sleep(opts.BreakerCooldown + 20*time.Millisecond)
		}
		res, err := nc.QueryResult(q)
		if err != nil {
			t.Fatalf("query %d: client-visible hard failure: %v", i, err)
		}
		switch {
		case i < degrade:
			if res.Degraded {
				t.Fatalf("query %d degraded before the kill", i)
			}
			if !reflect.DeepEqual(res.IDs, fullIDs) {
				t.Fatalf("query %d: full result mismatch", i)
			}
		case i < healAt:
			if !res.Degraded {
				t.Fatalf("query %d: outage response not flagged Degraded", i)
			}
			if !reflect.DeepEqual(res.IDs, partialIDs) {
				t.Fatalf("query %d: degraded IDs = %v, want shard 1 only", i, res.IDs)
			}
			sawDegraded++
			if shard0Breaker().State() == multiserver.BreakerOpen {
				sawOpen++
			}
		default:
			// Post-heal: the first query may race the breaker probe, but
			// results must never be wrong — only possibly still partial.
			if !res.Degraded && !reflect.DeepEqual(res.IDs, fullIDs) {
				t.Fatalf("query %d: full-flagged result missing matches", i)
			}
		}
	}
	if sawDegraded == 0 {
		t.Error("no degraded responses observed during the outage")
	}
	if sawOpen == 0 {
		t.Error("breaker never observed open during the outage")
	}
	if shard0Breaker().Opens() == 0 {
		t.Error("breaker never opened")
	}

	// Recovery: the only path from open back to closed is a successful
	// half-open probe, so a closed breaker plus a full result proves the
	// open → half-open → closed transition ran.
	res, err := nc.QueryResult(q)
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if res.Degraded || !reflect.DeepEqual(res.IDs, fullIDs) {
		t.Fatalf("full results did not resume: degraded=%v ids=%d/%d",
			res.Degraded, len(res.IDs), len(fullIDs))
	}
	if st := shard0Breaker().State(); st != multiserver.BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", st)
	}
	if h := nc.Health(); h.LiveShards != 2 || h.DeadFor != 0 {
		t.Errorf("health after recovery: %+v", h)
	}
}

// TestBreakerProbeAfterRollingKill reproduces the rolling-partition gap
// the elastic sim found: replica A dies and its breaker opens; then A
// heals and replica B dies, all inside A's breaker cooldown. At that
// point every replica either fast-fails (A: breaker still open, nothing
// transmitted) or genuinely fails (B: dead), so without the forced
// probe fallback a strict query fails hard even though A is serving.
func TestBreakerProbeAfterRollingKill(t *testing.T) {
	d := deploy(t, 600, 2)
	q := d.pickQuery(t)
	replica := d.shardServer(t, 0) // second replica of shard 0
	defer replica.Close()
	proxyA, err := faultnet.New(d.shards[0].Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxyA.Close()
	proxyB, err := faultnet.New(replica.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxyB.Close()

	opts := fastConn()
	// A cooldown far longer than the test: only a forced probe (never an
	// elapsed half-open transition) can bring replica A back.
	opts.BreakerCooldown = time.Minute
	nc, err := DialReplicaShards(
		[][]string{{proxyA.Addr(), proxyB.Addr()}, {d.shards[1].Addr()}},
		d.ad.Addr(), Options{Conn: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	want, err := nc.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	// Kill A: queries keep succeeding via B while A's breaker opens.
	// Re-preferring A before each query mimics what routed mode does
	// naturally — every route refresh rebuilds the replica set with
	// preference 0 — so the dead replica keeps accruing failures.
	proxyA.Partition()
	for i := 0; i < opts.BreakerThreshold; i++ {
		nc.route.Load().shards[0].preferred.Store(0)
		if _, err := nc.Query(q); err != nil {
			t.Fatalf("failover query %d: %v", i, err)
		}
	}
	breakerA := nc.route.Load().shards[0].conns[0].Breaker()
	if st := breakerA.State(); st != multiserver.BreakerOpen {
		t.Fatalf("breaker on replica A = %v after kill, want open", st)
	}

	// Roll the failure: heal A, kill B, query inside A's cooldown.
	proxyA.Heal()
	proxyB.Partition()
	got, err := nc.Query(q)
	if err != nil {
		t.Fatalf("query after rolling kill failed hard: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("probed result mismatch: %v vs %v", got, want)
	}
	if nc.Stats().BreakerProbes == 0 {
		t.Error("no forced probe round recorded")
	}
	// The successful probe closed A's breaker and re-preferred A, so
	// subsequent queries flow normally without further probe rounds.
	if st := breakerA.State(); st != multiserver.BreakerClosed {
		t.Errorf("breaker on replica A = %v after probe, want closed", st)
	}
	probes := nc.Stats().BreakerProbes
	for i := 0; i < 3; i++ {
		if _, err := nc.Query(q); err != nil {
			t.Fatalf("steady query %d after probe recovery: %v", i, err)
		}
	}
	if got := nc.Stats().BreakerProbes; got != probes {
		t.Errorf("probe rounds kept firing after recovery: %d -> %d", probes, got)
	}
}

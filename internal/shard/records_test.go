// The record path: a route whose shards serve records answers a query in
// one round trip per shard, metadata attached, on every attempt path a
// NetClient has — and never touches an ad server.
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
)

// recordsDeployment is an elastic cluster served twice over (two replicas
// of every shard position, each behind a fault proxy), a client on its
// live records route, and an ad server attached to that client which
// nothing should ever ask.
type recordsDeployment struct {
	c       *corpus.Corpus
	ec      *ElasticCluster
	serving [2]*ElasticServing
	proxies [2][]*faultnet.Proxy
	ad      *multiserver.Server
	nc      *NetClient
}

func deployRecords(t *testing.T, nAds, nShards int, opts Options) *recordsDeployment {
	t.Helper()
	d := &recordsDeployment{c: corpus.Generate(corpus.GenOptions{NumAds: nAds, Seed: 138})}
	var err error
	if d.ec, err = NewElastic(d.c.Ads, nShards, ElasticOptions{}); err != nil {
		t.Fatal(err)
	}
	var addrs [2][]string
	for r := range d.serving {
		if d.serving[r], err = d.ec.Serve(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.serving[r].Close)
		for _, addr := range d.serving[r].Addrs() {
			p, err := faultnet.New(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			d.proxies[r] = append(d.proxies[r], p)
			addrs[r] = append(addrs[r], p.Addr())
		}
	}
	if d.ad, err = multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, d.c.Ads); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.ad.Close() })
	d.nc, err = DialRoute(func() (*Route, error) { return d.ec.RouteOver(addrs[0], addrs[1]), nil }, d.ad.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.nc.Close)
	return d
}

// spanningQuery finds a query whose matches live on more than one shard.
func (d *recordsDeployment) spanningQuery(t *testing.T) string {
	t.Helper()
	for _, ad := range d.c.Ads {
		q, owners := joinWords(ad.Words), map[int]bool{}
		d.ec.Match(q, nil, func(matches []*corpus.Ad) {
			for _, m := range matches {
				owners[d.ec.table.OwnerOf(m.Words)] = true
			}
		})
		if len(owners) > 1 {
			return q
		}
	}
	t.Fatal("no query spans two shards")
	return ""
}

// requests is how many frames the shard servers have answered.
func (d *recordsDeployment) requests() (n int64) {
	for _, es := range d.serving {
		for _, srv := range es.servers {
			n += srv.Requests()
		}
	}
	return n
}

// wantRecords is the cluster's own answer: every owned match with the
// metadata its shard holds, in Match's order. skip leaves out the shards
// a degraded answer is missing.
func wantRecords(ec *ElasticCluster, q string, skip ...int) (ids []uint64, meta []multiserver.AdMeta) {
	ec.Match(q, nil, func(matches []*corpus.Ad) {
		for _, m := range matches {
			if !slices.Contains(skip, ec.table.OwnerOf(m.Words)) {
				ids = append(ids, m.ID)
				meta = append(meta, multiserver.AdMeta{BidMicros: m.Meta.BidMicros, ClickRate: m.Meta.ClickRate})
			}
		}
	})
	return ids, meta
}

// checkRecords holds a result to the cluster's answer, ID for ID and
// record for record.
func checkRecords(t *testing.T, label string, ec *ElasticCluster, q string, res *Result, err error, skip ...int) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: query %q: %v", label, q, err)
	}
	ids, meta := wantRecords(ec, q, skip...)
	if len(ids) == 0 {
		t.Fatalf("%s: query %q matches nothing: the test exercises nothing", label, q)
	}
	if !slices.Equal(res.IDs, ids) || !slices.Equal(res.Meta, meta) {
		t.Fatalf("%s: query %q:\n got %v %+v\nwant %v %+v", label, q, res.IDs, res.Meta, ids, meta)
	}
	if res.MetaMissing {
		t.Fatalf("%s: a records route flagged MetaMissing: %+v", label, res)
	}
}

// TestRecordsOneExchangePerShard: a fan-out over N shards is N frames out
// and N back, the ad server sees none of it, and the answer is what the
// two-hop deployment gives for the same cluster.
func TestRecordsOneExchangePerShard(t *testing.T) {
	const shards = 3
	d := deployRecords(t, 900, shards, Options{Conn: fastConn()})
	twoHop, err := DialReplicaShards([][]string{{d.serving[0].Addrs()[0]}, {d.serving[0].Addrs()[1]}, {d.serving[0].Addrs()[2]}}, d.ad.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer twoHop.Close()

	queries := []string{d.spanningQuery(t), joinWords(d.c.Ads[7].Words) + " extra", "nothing matches this"}
	for _, q := range queries {
		before := d.requests()
		res, err := d.nc.QueryResult(q)
		if q == "nothing matches this" {
			if err != nil || len(res.IDs) != 0 || len(res.Meta) != 0 || res.Degraded {
				t.Fatalf("no-match query: %+v, %v", res, err)
			}
		} else {
			checkRecords(t, "healthy", d.ec, q, res, err)
		}
		if got := d.requests() - before; got != shards {
			t.Errorf("query %q cost %d shard exchanges, want %d", q, got, shards)
		}
		adBefore := d.ad.Requests()
		want, err := twoHop.QueryResult(q)
		if err != nil || !slices.Equal(res.IDs, want.IDs) || !slices.Equal(res.Meta, want.Meta) {
			t.Errorf("query %q: records %v %+v, two-hop %v %+v (err %v)", q, res.IDs, res.Meta, want.IDs, want.Meta, err)
		}
		// The two-hop client pays its second hop only when something matched.
		if got, want := d.ad.Requests()-adBefore, min(int64(len(want.IDs)), 1); got != want {
			t.Errorf("query %q: two-hop client made %d ad-server requests, want %d", q, got, want)
		}
	}
	if h := d.nc.Health(); !h.AdLive || h.LiveShards != shards {
		t.Errorf("health: %+v", h)
	}
	// Everything the ad server saw came from the two-hop client.
	if got := d.ad.Requests(); got != 2 {
		t.Errorf("ad server answered %d requests, want the two-hop client's 2", got)
	}
}

// TestRecordsFollowTheCluster: metadata comes from the shard's own record
// at match time, so an ad inserted after Serve answers with its metadata
// (a start-up ad server answers zeros for it), and IDs held more than once
// keep each record.
func TestRecordsFollowTheCluster(t *testing.T) {
	d := deployRecords(t, 300, 2, Options{Conn: fastConn()})
	late := corpus.NewAd(900001, "zqxw latecomer", corpus.Meta{BidMicros: 4242, ClickRate: 17})
	d.ec.Insert(late)
	res, err := d.nc.QueryResult("zqxw latecomer today")
	checkRecords(t, "inserted after Serve", d.ec, "zqxw latecomer today", res, err)
	if len(res.Meta) != 1 || res.Meta[0] != (multiserver.AdMeta{BidMicros: 4242, ClickRate: 17}) {
		t.Fatalf("late ad's record: %+v", res.Meta)
	}

	// One ID under several phrases: different word sets, so different
	// slots and (for some) different shards, each with its own bid.
	owners := map[int]bool{}
	var words []string
	for i := 0; len(owners) < 2 || i < 4; i++ {
		w := fmt.Sprintf("dupword%d", i)
		ad := corpus.NewAd(77, "dupbase "+w, corpus.Meta{BidMicros: int64(1000 + i), ClickRate: uint16(i)})
		d.ec.Insert(ad)
		owners[d.ec.table.OwnerOf(ad.Words)] = true
		words = append(words, w)
	}
	d.ec.Insert(corpus.NewAd(77, "dupbase "+words[0], corpus.Meta{BidMicros: 9, ClickRate: 9})) // twice in one node
	q := "dupbase " + strings.Join(words, " ")
	res, err = d.nc.QueryResult(q)
	checkRecords(t, "duplicate IDs", d.ec, q, res, err)
	if len(res.IDs) != len(words)+1 {
		t.Fatalf("duplicate IDs: %d records for %d copies", len(res.IDs), len(words)+1)
	}
	if d.ad.Requests() != 0 {
		t.Errorf("ad server answered %d requests", d.ad.Requests())
	}
}

// TestRecordsThroughEveryAttemptPath drives the record request down each
// way a NetClient has of reaching a shard. Whichever attempt wins, the
// answer carries the shards' records and the ad server stays unasked.
func TestRecordsThroughEveryAttemptPath(t *testing.T) {
	t.Run("failover", func(t *testing.T) {
		d := deployRecords(t, 600, 2, Options{Conn: fastConn()})
		q := d.spanningQuery(t)
		d.proxies[0][0].Partition() // the preferred replica of shard 0
		res, err := d.nc.QueryResult(q)
		checkRecords(t, "failover", d.ec, q, res, err)
		if res.Degraded {
			t.Errorf("failover result flagged degraded: %+v", res)
		}
		if d.proxies[1][0].Exchanges() == 0 {
			t.Error("the second replica never answered")
		}
	})

	t.Run("hedged duplicate", func(t *testing.T) {
		if testing.Short() {
			t.Skip("latency-schedule test skipped in -short mode")
		}
		d := deployRecords(t, 600, 2, Options{Conn: fastConn(), HedgeAfter: 20 * time.Millisecond})
		q := d.spanningQuery(t)
		d.proxies[0][0].SetPolicy(&faultnet.Random{Delay: 150 * time.Millisecond})
		t0 := time.Now()
		res, err := d.nc.QueryResult(q)
		checkRecords(t, "hedged", d.ec, q, res, err)
		if elapsed := time.Since(t0); elapsed >= 150*time.Millisecond {
			t.Errorf("hedged query took %v, as long as the slow replica", elapsed)
		}
		if d.nc.Stats().Hedges == 0 {
			t.Error("no hedged request recorded")
		}
	})

	t.Run("breaker probe", func(t *testing.T) {
		opts := fastConn()
		opts.BreakerCooldown = time.Minute // only a forced probe brings replica A back
		d := deployRecords(t, 600, 2, Options{Conn: opts})
		q := d.spanningQuery(t)
		a, b := d.proxies[0][0], d.proxies[1][0]
		a.Partition()
		for i := 0; i < opts.BreakerThreshold; i++ {
			d.nc.route.Load().shards[0].preferred.Store(0)
			res, err := d.nc.QueryResult(q)
			checkRecords(t, "failover while A's breaker fills", d.ec, q, res, err)
		}
		a.Heal()
		b.Partition()
		res, err := d.nc.QueryResult(q)
		checkRecords(t, "probed", d.ec, q, res, err)
		if d.nc.Stats().BreakerProbes == 0 {
			t.Error("no forced probe round recorded")
		}
	})

	t.Run("dead shard, partial", func(t *testing.T) {
		d := deployRecords(t, 600, 2, Options{Conn: fastConn(), AllowPartial: true})
		q := d.spanningQuery(t)
		d.proxies[0][1].Partition()
		d.proxies[1][1].Partition()
		res, err := d.nc.QueryResult(q)
		checkRecords(t, "partial", d.ec, q, res, err, 1)
		if !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) {
			t.Errorf("partial result: degraded=%v failed=%v, want shard 1 failed", res.Degraded, res.FailedShards)
		}
		if _, err := d.nc.Query(q); err == nil {
			t.Error("strict Query succeeded with a dead shard")
		}
	})

	t.Run("stale epoch during a live split", func(t *testing.T) {
		d := deployRecords(t, 600, 2, Options{Conn: fastConn()})
		var queries []string
		for _, ad := range d.c.Ads[:40] {
			queries = append(queries, joinWords(ad.Words)+" extra")
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; !stop.Load(); i++ {
					q := queries[i%len(queries)]
					res, err := d.nc.QueryResult(q)
					if err != nil {
						t.Errorf("query %q through the split: %v", q, err)
						return
					}
					// The corpus does not change, so the answer is fixed
					// across the cutover, whichever shard serves it.
					if ids, meta := wantRecords(d.ec, q); !slices.Equal(res.IDs, ids) || !slices.Equal(res.Meta, meta) {
						t.Errorf("query %q through the split: got %v %+v, want %v %+v", q, res.IDs, res.Meta, ids, meta)
						return
					}
				}
			}(w)
		}
		_, err := d.ec.Split(0)
		// The cutover is behind us; these run on the route it retired.
		for _, q := range queries {
			res, qerr := d.nc.QueryResult(q)
			checkRecords(t, "post-cutover", d.ec, q, res, qerr)
		}
		stop.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatalf("Split: %v", err)
		}
		st := d.nc.Stats()
		if st.StaleRetries == 0 || d.nc.Epoch() != 2 {
			t.Errorf("the split was not absorbed by a refresh: epoch %d, %+v", d.nc.Epoch(), st)
		}
		if st.Retries != 0 || st.BreakerOpens != 0 {
			t.Errorf("stale handling burned fault budget: %+v", st)
		}
	})
}

// TestMergeKeepsRecordsWithTheirIDs: the merge is by ID, stable across
// shards, keeps duplicates, carries each record along, and sorts a reply
// that came out of order before trusting it.
func TestMergeKeepsRecordsWithTheirIDs(t *testing.T) {
	m := func(v int64) multiserver.AdMeta { return multiserver.AdMeta{BidMicros: v} }
	sc := &fanScratch{slots: []shardReply{
		{answer: answer{ids: []uint64{2, 5, 5, 9}, meta: []multiserver.AdMeta{m(20), m(50), m(51), m(90)}}},
		{err: errors.New("dead shard")},
		{answer: answer{ids: []uint64{9, 5, 1, 5}, meta: []multiserver.AdMeta{m(91), m(52), m(10), m(53)}}}, // out of order
		{answer: answer{ids: []uint64{}, meta: []multiserver.AdMeta{}}},
	}}
	res := &Result{}
	sc.merge(res, 8, true)
	wantIDs := []uint64{1, 2, 5, 5, 5, 5, 9, 9}
	wantMeta := []multiserver.AdMeta{m(10), m(20), m(50), m(51), m(52), m(53), m(90), m(91)}
	if !slices.Equal(res.IDs, wantIDs) || !slices.Equal(res.Meta, wantMeta) {
		t.Errorf("record merge:\n got %v %+v\nwant %v %+v", res.IDs, res.Meta, wantIDs, wantMeta)
	}

	// ID-only replies (a frozen route's) go through the same merge.
	sc = &fanScratch{slots: []shardReply{{answer: answer{ids: []uint64{7, 3}}}, {answer: answer{ids: []uint64{3, 4}}}}}
	res = &Result{}
	sc.merge(res, 4, false)
	if !slices.Equal(res.IDs, []uint64{3, 3, 4, 7}) || res.Meta != nil {
		t.Errorf("ID merge: %v, meta %v", res.IDs, res.Meta)
	}
}

// TestTagByteLedQueryText: UTF-8 letters are word runes, and their lead
// bytes include the tag magics — 0xEB opens every Hangul syllable of
// U+B000-U+BFFF, 0xDB the Arabic letters of U+06C0-U+06FF. Text sent raw
// used to be parsed as an epoch or deadline tag. The records tag is no
// valid UTF-8 byte, but a query is whatever the client typed.
func TestTagByteLedQueryText(t *testing.T) {
	phrases := []string{"\ub000 shoes", "\u06c0 shoes", "\xfb shoes"}
	var ads []corpus.Ad
	for i, p := range phrases[:2] {
		ads = append(ads, corpus.NewAd(uint64(i+1), p, corpus.Meta{BidMicros: int64(100 * (i + 1))}))
	}
	ads = append(ads, corpus.NewAd(3, "shoes", corpus.Meta{BidMicros: 300}))
	for i, lead := range []byte{0xEB, 0xDB} {
		if phrases[i][0] != lead {
			t.Fatalf("phrase %q starts with %#x, not the magic %#x", phrases[i], phrases[i][0], lead)
		}
	}
	want := [][]uint64{{1, 3}, {2, 3}, {3}}

	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	addrs := es.Addrs()

	// A frozen route sends the text untagged to servers that decode tags;
	// the records route sends it behind its own tag.
	frozen, err := DialReplicaShards([][]string{{addrs[0]}, {addrs[1]}}, adSrv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()
	routed, err := DialRoute(func() (*Route, error) { return ec.RouteOver(addrs), nil }, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()
	for i, q := range phrases {
		for name, nc := range map[string]*NetClient{"frozen": frozen, "records": routed} {
			if got, err := nc.Query(q); err != nil || !slices.Equal(got, want[i]) {
				t.Errorf("%s route, Query(%q) = %v, %v; want %v", name, q, got, err, want[i])
			}
			res, err := nc.QueryResultDeadline(q, time.Now().Add(time.Minute))
			if err != nil || !slices.Equal(res.IDs, want[i]) || len(res.Meta) != len(want[i]) {
				t.Errorf("%s route, deadline query %q = %+v, %v; want %v", name, q, res, err, want[i])
			}
		}
	}

	// The two-server client of the paper's deployment sends raw text too.
	cl, err := multiserver.Dial(addrs[0], adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, q := range phrases {
		if _, err := cl.QueryIDs(q); err != nil {
			t.Errorf("Client.QueryIDs(%q): %v", q, err)
		}
	}
}

// TestTwoHopSkipsMetadataForNoMatch: with nothing matched there is nothing
// to fetch, so the ad server is not asked — and, dead, is not noticed.
func TestTwoHopSkipsMetadataForNoMatch(t *testing.T) {
	d := deploy(t, 400, 2)
	nc, err := DialReplicaShards([][]string{{d.shards[0].Addr()}, {d.shards[1].Addr()}}, d.ad.Addr(),
		Options{Conn: fastConn(), AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	check := func(label string) {
		t.Helper()
		res, err := nc.QueryResult("nothing matches this")
		if err != nil || len(res.IDs) != 0 || len(res.Meta) != 0 || res.MetaMissing || res.Degraded {
			t.Fatalf("%s: no-match query: %+v, %v", label, res, err)
		}
		if !nc.Health().AdLive {
			t.Fatalf("%s: a query that needed no metadata marked the ad server dead", label)
		}
	}
	check("ad server up")
	if got := d.ad.Requests(); got != 0 {
		t.Errorf("ad server answered %d requests for an empty match list", got)
	}
	d.ad.Close()
	check("ad server down")
	if nc.Stats().Degraded != 0 {
		t.Error("a complete empty answer counted as degraded")
	}
}

// TestDialRouteWithoutAdServer: only a route whose shards serve records
// can do without one.
func TestDialRouteWithoutAdServer(t *testing.T) {
	ec := newStatic(t, elasticAds(20), 2)
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	frozen := frozenRoute([][]string{{es.Addrs()[0]}, {es.Addrs()[1]}})
	if nc, err := DialRoute(func() (*Route, error) { return frozen, nil }, "", Options{}); err == nil {
		nc.Close()
		t.Error("an ID-only route dialed without an ad server")
	}
	nc, err := DialRoute(func() (*Route, error) { return ec.RouteOver(es.Addrs()), nil }, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if res, err := nc.QueryResult("w3"); err != nil || !slices.Equal(res.IDs, []uint64{4}) || len(res.Meta) != 1 {
		t.Errorf("query without an ad server: %+v, %v", res, err)
	}
	if h := nc.Health(); h.AdBreaker != "" || !h.AdLive {
		t.Errorf("health without an ad server: %+v", h)
	}
}

// TestElasticFlagsReachTheReply: an elastic shard says what its answer
// leaves out. A 40-word query over 40 one-word ads is cut down to
// MaxQueryWords on every shard, so the merged answer is short — and says
// so; and a shard handed a request whose deadline has passed (the
// transport answers those itself, so this is the backend below it) stops
// early with the truncated flag on an ID-ordered part of its full answer,
// for the records request and the ID request alike.
func TestElasticFlagsReachTheReply(t *testing.T) {
	ads := elasticAds(40)
	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	nc, err := DialRoute(func() (*Route, error) { return ec.RouteOver(es.Addrs()), nil }, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var words []string
	for _, ad := range ads {
		words = append(words, ad.Phrase)
	}
	res, err := nc.QueryResult(joinWords(words))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || len(res.IDs) >= len(ads) {
		t.Fatalf("the 40-word query matched %d of 40 ads: the cutoff did not bite", len(res.IDs))
	}
	if !res.CutoffApplied || res.Truncated {
		t.Errorf("a short answer (%d of 40) with CutoffApplied=%v Truncated=%v, want the cutoff flagged alone", len(res.IDs), res.CutoffApplied, res.Truncated)
	}
	if short, err := nc.QueryResult("w3 w4"); err != nil || short.CutoffApplied || len(short.IDs) != 2 {
		t.Errorf("two-word query: %+v, err %v; want both ads and no flag", short, err)
	}

	// The deadline: a query heavy enough to reach the budget's clock check
	// on either shard part-way through its records — eight words over six
	// ads for each of their subsets of up to three — asked of that shard with
	// and without time left.
	var heavy []string
	for i := 0; i < 8; i++ {
		heavy = append(heavy, fmt.Sprintf("h%d", i))
	}
	ads = ads[:0]
	for mask := 1; mask < 1<<len(heavy); mask++ {
		if bits.OnesCount(uint(mask)) > 3 {
			continue
		}
		var phrase []string
		for i, w := range heavy {
			if mask&(1<<i) != 0 {
				phrase = append(phrase, w)
			}
		}
		for copies := 0; copies < 6; copies++ {
			ads = append(ads, corpus.NewAd(uint64(len(ads)+1), joinWords(phrase), corpus.Meta{BidMicros: int64(mask)}))
		}
	}
	if ec, err = NewElastic(ads, 2, ElasticOptions{}); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Second)
	for _, records := range []bool{false, true} {
		truncated := false
		for id := 0; id < 2; id++ {
			b := shardBackend{ec: ec, id: id}
			req := multiserver.Request{Query: joinWords(heavy), Epoch: ec.Epoch(), Tagged: true, Records: records}
			full, fullFlags := decodeReply(t, b, req)
			req.Deadline = past
			part, flags := decodeReply(t, b, req)
			if fullFlags&multiserver.IDFlagTruncated != 0 {
				t.Fatalf("shard %d: truncated with no deadline", id)
			}
			if flags&multiserver.IDFlagTruncated == 0 {
				if !slices.Equal(part, full) {
					t.Errorf("shard %d records=%v: an unflagged answer of %d differs from the full one of %d", id, records, len(part), len(full))
				}
				continue
			}
			truncated = true
			t.Logf("shard %d records=%v: %d of %d ids before the deadline was read", id, records, len(part), len(full))
			if len(part) >= len(full) || !slices.IsSorted(part) {
				t.Errorf("shard %d records=%v: truncated answer has %d of %d ids, sorted=%v", id, records, len(part), len(full), slices.IsSorted(part))
			}
			rest := full
			for _, adID := range part { // a sub-multiset, in order
				at := slices.Index(rest, adID)
				if at < 0 {
					t.Fatalf("shard %d records=%v: truncated answer holds %d, which the full answer lacks", id, records, adID)
				}
				rest = rest[at+1:]
			}
		}
		if !truncated {
			t.Errorf("records=%v: no shard stopped at a deadline already past: the query is too light to test it", records)
		}
	}
}

// decodeReply is the IDs and flags b answers req with.
func decodeReply(t *testing.T, b multiserver.Backend, req multiserver.Request) ([]uint64, byte) {
	t.Helper()
	body, err := b.AppendMatch(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	var flags byte
	if req.Records {
		ids, _, flags, err = multiserver.DecodeRecords(body)
	} else {
		ids, flags, err = multiserver.DecodeIDsFlags(body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ids, flags
}

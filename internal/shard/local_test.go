// The local path: the front end of the process that serves the positions
// (ElasticServing.Dial) asks them in-process, and must answer every query,
// and fail every failing one, as a front end over their sockets does.
package shard

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/workload"
)

// transports are the two front ends of one ElasticServing.
var transports = []string{"local", "wire"}

// localAndWire is one served cluster and a front end of each transport.
type localAndWire struct {
	c      *corpus.Corpus
	ec     *ElasticCluster
	es     *ElasticServing
	fronts map[string]*NetClient
}

func deployLocalAndWire(t testing.TB, nAds, nShards int, opts Options) *localAndWire {
	t.Helper()
	d := &localAndWire{c: corpus.Generate(corpus.GenOptions{NumAds: nAds, Seed: 47}), fronts: map[string]*NetClient{}}
	var err error
	if d.ec, err = NewElastic(d.c.Ads, nShards, ElasticOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.es, err = d.ec.Serve(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.es.Close)
	for _, transport := range transports {
		d.fronts[transport] = d.dial(t, transport, opts)
	}
	return d
}

// dial starts a front end of the transport over d's positions.
func (d *localAndWire) dial(t testing.TB, transport string, opts Options) *NetClient {
	t.Helper()
	var nc *NetClient
	var err error
	if transport == "local" {
		nc, err = d.es.Dial(d.ec, opts)
	} else {
		nc, err = DialRoute(func() (*Route, error) { return d.ec.RouteOver(d.es.Addrs()), nil }, "", opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)
	return nc
}

// queries is a sample of the corpus's phrases, each with a word no ad
// holds, a query of 20 words (the union of sampled ads') and one that
// matches nothing.
func (d *localAndWire) queries(rng *rand.Rand, n int) []string {
	qs := []string{"zzzz qqqq"}
	var long []string
	for len(qs) < n {
		ad := &d.c.Ads[rng.Intn(len(d.c.Ads))]
		qs = append(qs, ad.Phrase+" zzextra")
		long = append(long, ad.Words...)
	}
	return append(qs, strings.Join(long[:min(len(long), 20)], " "))
}

// sameResult fails the test unless both results say the same thing.
func sameResult(t *testing.T, step, q string, local, wire *Result) {
	t.Helper()
	if !reflect.DeepEqual(local.IDs, wire.IDs) || !reflect.DeepEqual(local.Meta, wire.Meta) ||
		local.Truncated != wire.Truncated ||
		local.Degraded != wire.Degraded || !reflect.DeepEqual(local.FailedShards, wire.FailedShards) {
		t.Fatalf("%s: query %q:\nlocal %+v\n wire %+v", step, q, *local, *wire)
	}
}

// TestLocalEqualsWire drives one served cluster through seeded inserts and
// deletes, a split, a migration and a merge, and after each step requires
// both front ends to give every query the same Result.
func TestLocalEqualsWire(t *testing.T) {
	d := deployLocalAndWire(t, 3000, 2, Options{})
	rng := rand.New(rand.NewSource(1))
	qs := d.queries(rng, 60)
	matched, long := 0, 0
	check := func(step string) {
		t.Helper()
		for _, q := range qs {
			local, lerr := d.fronts["local"].QueryResult(q)
			wire, werr := d.fronts["wire"].QueryResult(q)
			if lerr != nil || werr != nil {
				t.Fatalf("%s: query %q: local %v, wire %v", step, q, lerr, werr)
			}
			sameResult(t, step, q, local, wire)
			if len(local.IDs) > 0 {
				matched++
			}
			if len(local.IDs) > 0 && len(strings.Fields(q)) > 12 {
				long++
			}
		}
	}
	check("start")

	nextID := uint64(1 << 40)
	for i := 0; i < 300; i++ {
		ad := &d.c.Ads[rng.Intn(len(d.c.Ads))]
		if rng.Intn(3) == 0 {
			d.ec.Delete(ad.ID, ad.Phrase)
			continue
		}
		// A new ad on an existing phrase, so the sampled queries see it.
		nextID++
		d.ec.Insert(corpus.NewAd(nextID, ad.Phrase, corpus.Meta{BidMicros: int64(rng.Intn(1e6)), ClickRate: uint16(rng.Intn(1e4))}))
	}
	check("churn")

	to, err := d.ec.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	check("split")
	if err := d.ec.Migrate(1, to); err != nil {
		t.Fatal(err)
	}
	check("migrate")
	if err := d.ec.Merge(to, 0); err != nil {
		t.Fatal(err)
	}
	check("merge")

	if matched == 0 || long == 0 {
		t.Fatalf("%d matching answers, %d to a query of more than 12 words: the queries exercise too little", matched, long)
	}
	for _, name := range transports {
		if st := d.fronts[name].Stats(); st.StaleRetries == 0 {
			t.Errorf("%s front end never refreshed its route across three cutovers", name)
		}
	}
}

// TestLocalErrorPathsAsWire runs each failure a front end absorbs or
// reports through both transports: a spent deadline, a query racing a
// cutover, a panicking position and a closed one.
func TestLocalErrorPathsAsWire(t *testing.T) {
	for _, transport := range transports {
		t.Run("deadline/"+transport, func(t *testing.T) {
			d := deployLocalAndWire(t, 500, 2, Options{Conn: fastConn()})
			nc := d.fronts[transport]
			if _, err := nc.QueryResultDeadline(d.c.Ads[0].Phrase, time.Now().Add(-time.Millisecond)); !errors.Is(err, multiserver.ErrDeadlineExpired) {
				t.Fatalf("spent deadline: %v, want ErrDeadlineExpired", err)
			}
			res, err := nc.QueryResultDeadline(d.c.Ads[0].Phrase, time.Now().Add(time.Second))
			checkRecords(t, "live deadline", d.ec, d.c.Ads[0].Phrase, res, err)
		})

		t.Run("stale/"+transport, func(t *testing.T) {
			d := deployLocalAndWire(t, 500, 2, Options{Conn: fastConn()})
			nc := d.fronts[transport]
			if _, err := d.ec.Split(0); err != nil {
				t.Fatal(err)
			}
			q := d.c.Ads[0].Phrase
			res, err := nc.QueryResult(q)
			checkRecords(t, "after a cutover", d.ec, q, res, err)
			if st := nc.Stats(); st.StaleRetries != 1 || nc.Epoch() != d.ec.Epoch() {
				t.Fatalf("StaleRetries %d at epoch %d, want 1 at the cluster's %d", st.StaleRetries, nc.Epoch(), d.ec.Epoch())
			}
		})

		t.Run("panic/"+transport, func(t *testing.T) {
			d := deployLocalAndWire(t, 500, 2, Options{Conn: fastConn()})
			nc := d.fronts[transport]
			// A position whose index is gone panics in its backend.
			d.ec.mu.Lock()
			saved := d.ec.shards[1]
			d.ec.shards[1] = nil
			d.ec.mu.Unlock()
			var se *multiserver.ServerError
			for i := 0; i < 5; i++ {
				if _, err := nc.QueryResult(d.c.Ads[0].Phrase); !errors.As(err, &se) || !strings.Contains(se.Msg, "panic") {
					t.Fatalf("query %d over a panicking position: %v, want a *ServerError naming the panic", i, err)
				}
			}
			// A replica that answered with an error frame is alive.
			h := nc.Health()
			for _, sh := range h.Shards {
				if sh.Replicas[0].Breaker != multiserver.BreakerClosed.String() || !sh.Live {
					t.Fatalf("shard %d after contained panics: %+v, want live with a closed breaker", sh.Shard, sh)
				}
			}
			if h.LiveShards != len(h.Shards) {
				t.Fatalf("%d of %d shards live after contained panics", h.LiveShards, len(h.Shards))
			}
			d.ec.mu.Lock()
			d.ec.shards[1] = saved
			d.ec.mu.Unlock()
			res, err := nc.QueryResult(d.c.Ads[0].Phrase)
			checkRecords(t, "after the panics", d.ec, d.c.Ads[0].Phrase, res, err)
		})

		t.Run("closed/"+transport, func(t *testing.T) {
			d := deployLocalAndWire(t, 500, 2, Options{Conn: fastConn()})
			partial := d.dial(t, transport, Options{Conn: fastConn(), AllowPartial: true})
			q := spanningPhrase(t, d)
			d.es.servers[1].Close()
			if _, err := d.fronts[transport].QueryResult(q); err == nil {
				t.Fatal("a strict query answered with a position closed")
			} else if transport == "local" && !errors.Is(err, net.ErrClosed) {
				t.Fatalf("strict query over a closed local position: %v, want net.ErrClosed", err)
			}
			res, err := partial.QueryResult(q)
			if err != nil || !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{1}) {
				t.Fatalf("partial query over a closed position: %+v, %v; want degraded, shard 1 failed", res, err)
			}
			checkRecords(t, "degraded", d.ec, q, res, nil, 1)
		})
	}
}

// spanningPhrase is a corpus phrase with matches on both shards of d, so a
// degraded answer is neither complete nor empty.
func spanningPhrase(t *testing.T, d *localAndWire) string {
	t.Helper()
	for _, ad := range d.c.Ads {
		n := 0
		for id := 0; id < 2; id++ {
			if ids, _ := decodeReply(t, shardBackend{ec: d.ec, id: id}, multiserver.Request{Query: ad.Phrase}); len(ids) > 0 {
				n++
			}
		}
		if n == 2 {
			return ad.Phrase
		}
	}
	t.Fatal("no phrase matches on both shards")
	return ""
}

// BenchmarkElasticQuery is elastic-fanout's stream without the HTTP layer:
// distinct cold-mix queries (one in ten embeds an ad's word set, half are
// long, each capped at 12 words as bench/'s streams are) through a front end of a 2-shard,
// 200k-ad cluster, in-process (local) and over the positions' sockets
// (wire), under a one-second request deadline as the HTTP server sets one.
func BenchmarkElasticQuery(b *testing.B) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	wl := workload.Generate(c, workload.GenOptions{
		NumQueries: 20_000, HitProb: 0.1, MaxExtraWords: 6, LongQueryProb: 0.5,
		ZipfS: 1, MaxFreq: 200, Seed: 2,
	})
	queries := make([]string, len(wl.Queries))
	for i, q := range wl.Queries {
		queries[i] = strings.Join(q.Words[:min(len(q.Words), 12)], " ")
	}
	d := &localAndWire{c: c}
	var err error
	if d.ec, err = LoadElastic(corpus.FromAds(c.Ads), 2, ElasticOptions{}); err != nil {
		b.Fatal(err)
	}
	if d.es, err = d.ec.Serve(); err != nil {
		b.Fatal(err)
	}
	defer d.es.Close()
	for _, transport := range transports {
		b.Run(transport, func(b *testing.B) {
			nc := d.dial(b, transport, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if _, err := nc.QueryResultDeadline(queries[i%len(queries)], time.Now().Add(time.Second)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

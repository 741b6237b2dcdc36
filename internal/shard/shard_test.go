package shard

import (
	"encoding/hex"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/workload"
)

// newStatic builds the static deployment's cluster: an ElasticCluster
// that is never rebalanced, one slot per shard and no room to grow.
func newStatic(t testing.TB, ads []corpus.Ad, n int) *ElasticCluster {
	t.Helper()
	ec, err := NewElastic(ads, n, ElasticOptions{Slots: n, MaxShards: n})
	if err != nil {
		t.Fatal(err)
	}
	return ec
}

func ids(ads []*corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for _, a := range ads {
		out = append(out, a.ID)
	}
	return out
}

// sameAnswers checks the cluster against one index over the whole corpus
// on a generated query stream: same IDs, same order.
func sameAnswers(t *testing.T, c *corpus.Corpus, single *core.Index, cluster *ElasticCluster, label string) {
	t.Helper()
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 150, Seed: 132})
	for qi := range wl.Queries {
		q := joinWords(wl.Queries[qi].Words)
		want := ids(single.BroadMatchText(q, nil))
		got := clusterIDs(t, cluster, q)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s query %q: %v vs %v", label, q, got, want)
		}
	}
}

func TestClusterEquivalence(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 131})
	single := core.New(c.Ads, core.Options{})
	for _, n := range []int{1, 2, 4, 7} {
		static := newStatic(t, c.Ads, n)
		if static.NumShards() != n || static.NumAds() != len(c.Ads) {
			t.Fatalf("n=%d: shards=%d ads=%d", n, static.NumShards(), static.NumAds())
		}
		sameAnswers(t, c, single, static, "static")
		// The default shape (64 slots, room to grow), and the same cluster
		// once a rebalance has moved slots: still one index's answers.
		elastic, err := NewElastic(c.Ads, n, ElasticOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, c, single, elastic, "elastic")
		if _, err := elastic.Split(0); err != nil {
			t.Fatal(err)
		}
		checkOwnership(t, elastic)
		sameAnswers(t, c, single, elastic, "split")
	}
}

// TestServedStaticCluster: a static cluster served over TCP and reached
// through a frozen route answers what one index over the whole corpus
// answers, and follows the cluster's inserts and deletes.
func TestServedStaticCluster(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1000, Seed: 13})
	single := core.New(c.Ads, core.Options{})
	cluster := newStatic(t, c.Ads, 4)
	if cluster.NumShards() != 4 || cluster.NumAds() != 1000 {
		t.Fatalf("shards=%d ads=%d", cluster.NumShards(), cluster.NumAds())
	}
	es, err := cluster.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	nc, err := dialStatic(es.Addrs(), adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	query := func(q string) []uint64 {
		t.Helper()
		got, err := nc.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		return got
	}
	for i := 0; i < 100; i++ {
		q := c.Ads[i*7%len(c.Ads)].Phrase + " extra"
		if want, got := ids(single.BroadMatchText(q, nil)), query(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: %v, one index: %v", q, got, want)
		}
	}
	cluster.Insert(corpus.NewAd(99999, "zzzz unique phrase", corpus.Meta{}))
	if got := query("zzzz unique phrase today"); !reflect.DeepEqual(got, []uint64{99999}) {
		t.Fatalf("inserted ad: %v", got)
	}
	if !cluster.Delete(99999, "zzzz unique phrase") {
		t.Fatal("delete failed")
	}
	if got := query("zzzz unique phrase today"); len(got) != 0 {
		t.Fatalf("deleted ad still served: %v", got)
	}
}

func TestClusterInsertDelete(t *testing.T) {
	cluster := newStatic(t, nil, 4)
	cluster.Insert(corpus.NewAd(1, "red shoes", corpus.Meta{}))
	cluster.Insert(corpus.NewAd(2, "blue shoes", corpus.Meta{}))
	if got := clusterIDs(t, cluster, "red blue shoes"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("got %v", got)
	}
	if !cluster.Delete(1, "red shoes") {
		t.Fatal("delete failed")
	}
	if cluster.Delete(1, "red shoes") {
		t.Fatal("double delete succeeded")
	}
	if cluster.Delete(5, "") {
		t.Fatal("empty phrase delete succeeded")
	}
	if got := clusterIDs(t, cluster, "red blue shoes"); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("after delete: %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewElastic(nil, 0, ElasticOptions{}); err == nil {
		t.Error("0 shards accepted")
	}
}

func TestCoLocationByWordSet(t *testing.T) {
	// Ads sharing a word set must land on one shard (condition IV).
	ads := []corpus.Ad{
		corpus.NewAd(1, "cheap books", corpus.Meta{}),
		corpus.NewAd(2, "books cheap", corpus.Meta{}),
		corpus.NewAd(3, "cheap books", corpus.Meta{}),
	}
	cluster := newStatic(t, ads, 8)
	nonEmpty := 0
	for i, ix := range cluster.shards {
		if ix.NumAds() > 0 {
			nonEmpty++
			if ix.NumAds() != 3 {
				t.Errorf("shard %d has %d ads, want all 3 together", i, ix.NumAds())
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("word set split across %d shards", nonEmpty)
	}
}

// dialStatic dials one replica per shard with strict semantics.
func dialStatic(indexAddrs []string, adAddr string) (*NetClient, error) {
	replicas := make([][]string, len(indexAddrs))
	for i, a := range indexAddrs {
		replicas[i] = []string{a}
	}
	return DialReplicaShards(replicas, adAddr, Options{})
}

// plainServer serves one shard of cluster the way adserve -tcp-index
// does: a plain index server that knows nothing of routing epochs.
func plainServer(t *testing.T, cluster *ElasticCluster, i int) *multiserver.Server {
	t.Helper()
	srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{},
		multiserver.CoreBackend{Index: cluster.shards[i]})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestNetShardedQuery(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 134})
	single := core.New(c.Ads, core.Options{})

	// Three index shards plus one shared ad server.
	cluster := newStatic(t, c.Ads, 3)
	var addrs []string
	for i := 0; i < cluster.NumShards(); i++ {
		srv := plainServer(t, cluster, i)
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()

	nc, err := dialStatic(addrs, adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	wl := workload.Generate(c, workload.GenOptions{NumQueries: 80, Seed: 135})
	for qi := range wl.Queries {
		q := joinWords(wl.Queries[qi].Words)
		want := ids(single.BroadMatchText(q, nil))
		got, err := nc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: %v vs %v", q, got, want)
		}
	}
}

func TestNetShardedFailure(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 100, Seed: 136})
	cluster := newStatic(t, c.Ads, 2)
	srv0 := plainServer(t, cluster, 0)
	srv1 := plainServer(t, cluster, 1)
	defer srv1.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()

	nc, err := dialStatic([]string{srv0.Addr(), srv1.Addr()}, adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Query("anything"); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	// Kill shard 0: subsequent queries must surface an error, not silently
	// return partial results.
	srv0.Close()
	if _, err := nc.Query("anything"); err == nil {
		t.Fatal("query with a dead shard should fail")
	}
}

func TestDialShardsErrors(t *testing.T) {
	if _, err := dialStatic(nil, "127.0.0.1:1"); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := DialReplicaShards([][]string{{}}, "127.0.0.1:1", Options{}); err == nil {
		t.Error("a shard with no replica addresses accepted")
	}
	if _, err := dialStatic([]string{"127.0.0.1:1"}, "127.0.0.1:1"); err == nil {
		t.Error("unreachable shard accepted")
	}

	// One reachable replica per shard is the dial-time rule of both
	// topologies: a live shard 0 does not excuse a shard 1 whose replicas
	// are all down, on a frozen route or a versioned one.
	cluster := newStatic(t, nil, 2)
	es, err := cluster.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	up := es.Addrs()
	replicas := [][]string{{up[0]}, {"127.0.0.1:1", "127.0.0.1:2"}}
	_, err = DialReplicaShards(replicas, up[0], Options{})
	if err == nil || !strings.Contains(err.Error(), "no reachable replica for shard 1") {
		t.Errorf("frozen route with a dark shard: err = %v", err)
	}
	_, err = DialRoute(func() (*Route, error) {
		return &Route{Table: *cluster.Table(), Replicas: replicas}, nil
	}, up[0], Options{})
	if err == nil || !strings.Contains(err.Error(), "no reachable replica for shard 1") {
		t.Errorf("versioned route with a dark shard: err = %v", err)
	}
	// One dead replica beside a live one is fine.
	nc, err := DialReplicaShards([][]string{{"127.0.0.1:1", up[0]}, {up[1]}}, up[0], Options{})
	if err != nil {
		t.Fatalf("dial with one dead replica per shard: %v", err)
	}
	nc.Close()
}

// tap relays one TCP connection at a time to backend and records the
// bytes the client sent.
type tap struct {
	ln net.Listener
	mu sync.Mutex
	in []byte
}

func newTap(t *testing.T, backend string) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			go func() {
				io.Copy(client, server)
				client.Close()
			}()
			buf := make([]byte, 4096)
			for {
				n, err := client.Read(buf)
				tp.mu.Lock()
				tp.in = append(tp.in, buf[:n]...)
				tp.mu.Unlock()
				if n > 0 {
					server.Write(buf[:n])
				}
				if err != nil {
					break
				}
			}
			server.Close()
		}
	}()
	return tp
}

func (tp *tap) take() []byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := tp.in
	tp.in = nil
	return out
}

// TestFrozenRouteWire: a static client is a NetClient on a frozen
// (epoch 0) route. What it puts on the wire is the bare query text — the
// "req plain" frame of multiserver's TestGoldenWireBytes, byte for byte
// what the non-routed client sent — so a plain index server with no
// notion of epochs (adserve -tcp-index) parses it; and it never goes
// back to its route source.
func TestFrozenRouteWire(t *testing.T) {
	ads := elasticAds(40)
	cluster := newStatic(t, ads, 1)
	srv := plainServer(t, cluster, 0)
	defer srv.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	tp := newTap(t, srv.Addr())

	nc, err := dialStatic([]string{tp.ln.Addr().String()}, adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if got, err := nc.Query("cheap flights"); err != nil || len(got) != 0 {
		t.Fatalf("Query = %v, %v", got, err)
	}
	if got := hex.EncodeToString(tp.take()); got != "0000000d636865617020666c6967687473" {
		t.Errorf("frozen-route request frame: %s", got)
	}

	for i := 0; i < 1000; i++ {
		ad := ads[i%len(ads)]
		got, err := nc.Query(ad.Phrase)
		if err != nil || len(got) != 1 || got[0] != ad.ID {
			t.Fatalf("Query(%q) = %v, %v", ad.Phrase, got, err)
		}
	}
	if e := nc.Epoch(); e != 0 {
		t.Errorf("Epoch = %d, want 0 (frozen)", e)
	}
	if st := nc.Stats(); st.RouteRefreshes != 1 || st.StaleRetries != 0 {
		t.Errorf("after 1000 queries: %+v, want the one fetch at dial", st)
	}
}

// Property: any shard count yields the same result set as one shard.
func TestShardCountInvarianceQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 137})
	single := core.New(c.Ads, core.Options{})
	vocab := c.Vocabulary()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cluster := newStatic(t, c.Ads, 1+rng.Intn(9))
		for trial := 0; trial < 5; trial++ {
			var qw []string
			for j := 1 + rng.Intn(5); j > 0; j-- {
				qw = append(qw, vocab[rng.Intn(len(vocab))])
			}
			q := joinWords(qw)
			a := ids(single.BroadMatchText(q, nil))
			b := clusterIDs(t, cluster, q)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

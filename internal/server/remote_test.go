// Remote (distributed front-end) mode: /search fanned out over shard
// servers with degradation surfaced in responses, metrics, and /readyz.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// startRemoteServer stands up a static deployment over loopback: a
// two-shard cluster's index servers and a remote-mode front-end on the
// frozen route whose shard 0 connection runs through a faultnet proxy so
// tests can kill and restore it.
func startRemoteServer(t *testing.T, cfg Config, sopts shard.Options) (*Server, string, *faultnet.Proxy) {
	t.Helper()
	ec, err := shard.NewElastic(testCatalog(), 2, shard.ElasticOptions{Slots: 2, MaxShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(es.Close)
	addrs := es.Addrs()
	proxy, err := faultnet.New(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	if sopts.Conn.Timeout == 0 {
		sopts.Conn = multiserver.ConnOpts{
			Timeout:          300 * time.Millisecond,
			MaxRetries:       1,
			RetryBase:        2 * time.Millisecond,
			RetryMax:         10 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  100 * time.Millisecond,
		}
	}
	nc, err := shard.DialReplicaShards([][]string{{proxy.Addr()}, {addrs[1]}}, sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)

	s := NewRemote(nc, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	return s, "http://" + s.Addr(), proxy
}

func status(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestRemoteSearch(t *testing.T) {
	_, base, _ := startRemoteServer(t, Config{}, shard.Options{})

	res := search(t, base, "cheap used books", "")
	if res.Matched != 4 || !reflect.DeepEqual(res.IDs, []uint64{1, 2, 4, 5}) {
		t.Fatalf("remote broad match: %+v", res)
	}
	if res.Degraded {
		t.Errorf("healthy result flagged degraded: %+v", res)
	}
	// Metadata is the shards' own records, aligned with the IDs.
	if len(res.Meta) != 4 || res.Meta[0].BidMicros != 100 || res.Meta[3].BidMicros != 500 {
		t.Errorf("remote metadata: %+v", res.Meta)
	}

	// Only broad match exists on the wire; everything index-local is 501.
	if got := status(t, "GET", base+"/search?q=books&type=exact"); got != http.StatusNotImplemented {
		t.Errorf("exact search = %d, want 501", got)
	}
	for _, ep := range []struct{ method, path string }{
		{"POST", "/insert"}, {"POST", "/delete"}, {"GET", "/stats"}, {"POST", "/optimize"},
	} {
		if got := status(t, ep.method, base+ep.path); got != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501", ep.method, ep.path, got)
		}
	}
	if got := status(t, "GET", base+"/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := status(t, "GET", base+"/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d", got)
	}

	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Backends == nil {
		t.Fatal("remote /metrics missing backends section")
	}
	if snap.Backends.Health.LiveShards != 2 {
		t.Errorf("live_shards = %d, want 2", snap.Backends.Health.LiveShards)
	}
}

func TestRemoteDegradedSearchAndReadyz(t *testing.T) {
	grace := 250 * time.Millisecond
	_, base, proxy := startRemoteServer(t,
		Config{backendLossGrace: grace},
		shard.Options{AllowPartial: true, Conn: multiserver.ConnOpts{
			Timeout:          300 * time.Millisecond,
			MaxRetries:       1,
			RetryBase:        2 * time.Millisecond,
			RetryMax:         10 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  100 * time.Millisecond,
		}})

	if res := search(t, base, "cheap used books", ""); res.Degraded {
		t.Fatalf("healthy search degraded: %+v", res)
	}

	// Kill shard 0: searches keep answering 200 with the degradation
	// surfaced, and /readyz flips to 503 once the loss is sustained.
	proxy.Partition()
	res := search(t, base, "cheap used books", "")
	if !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{0}) {
		t.Fatalf("outage search not flagged: %+v", res)
	}
	if res.Matched != len(res.IDs) || len(res.Meta) != len(res.IDs) {
		t.Errorf("degraded response inconsistent: %+v", res)
	}
	if got := status(t, "GET", base+"/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d before grace elapsed, want 200", got)
	}
	time.Sleep(grace + 50*time.Millisecond)
	search(t, base, "cheap used books", "") // refresh liveness after the grace window
	if got := status(t, "GET", base+"/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d during sustained loss, want 503", got)
	}

	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Degraded == 0 {
		t.Error("degraded counter is zero after degraded searches")
	}
	if snap.Backends == nil || snap.Backends.Health.LiveShards != 1 {
		t.Errorf("backends snapshot during outage: %+v", snap.Backends)
	}

	// Restore the replica: full results and readiness resume.
	proxy.Heal()
	time.Sleep(150 * time.Millisecond) // let the breaker cooldown lapse
	res = search(t, base, "cheap used books", "")
	if res.Degraded || !reflect.DeepEqual(res.IDs, []uint64{1, 2, 4, 5}) {
		t.Fatalf("post-heal search still degraded: %+v", res)
	}
	if got := status(t, "GET", base+"/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d after recovery, want 200", got)
	}
}

func TestRemoteStrictBackendFailure(t *testing.T) {
	s, base, proxy := startRemoteServer(t, Config{}, shard.Options{})
	proxy.Partition()
	if got := status(t, "GET", base+"/search?q=books"); got != http.StatusBadGateway {
		t.Errorf("strict search during outage = %d, want 502", got)
	}
	if s.metrics.BackendErrors.Load() == 0 {
		t.Error("BackendErrors not counted")
	}
}

// TestRemoteReplyMatchesEncodingJSON holds the append-form remote reply to
// encoding/json of the searchResponse it replaced, over every flag
// combination a fan-out can produce and a query text that needs escaping.
func TestRemoteReplyMatchesEncodingJSON(t *testing.T) {
	ids := []uint64{1, 99, 1 << 63}
	meta := []multiserver.AdMeta{{BidMicros: 123456, ClickRate: 77}, {}, {BidMicros: -1, ClickRate: 65535}}
	cases := map[string]shard.Result{
		"no match":        {},
		"no match, empty": {IDs: []uint64{}, Meta: []multiserver.AdMeta{}, FailedShards: []int{}},
		"match":           {IDs: ids, Meta: meta},
		"one match":       {IDs: ids[:1], Meta: meta[:1]},
		"degraded":        {IDs: ids, Meta: meta, Degraded: true, FailedShards: []int{0, 3}},
		"degraded, none":  {Degraded: true, FailedShards: []int{2}},
		"truncated":       {IDs: ids, Meta: meta, Truncated: true},
		"everything":      {IDs: ids, Meta: meta, Degraded: true, FailedShards: []int{1}, Truncated: true},
	}
	for name, res := range cases {
		for _, q := range []string{"cheap used books", "caf\u00e9 <b>\"5\u2028\" \x00\xff"} {
			want, err := json.Marshal(searchResponse{
				Query: q, Type: "broad", Matched: len(res.IDs), TookUS: 1234,
				IDs: res.IDs, Meta: res.Meta, Degraded: res.Degraded, FailedShards: res.FailedShards,
				Truncated: res.Truncated,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The encoder appends: what is in front of the reply stays.
			got := appendRemoteReply([]byte("kept"), q, "broad", &res, 1234)
			if string(got) != "kept"+string(want)+"\n" {
				t.Errorf("%s, %q:\n got %s\nwant %s", name, q, got[4:], want)
			}
		}
	}
}

// startElasticFrontEnd is a remote-mode server over a two-shard elastic
// cluster on its live route.
func startElasticFrontEnd(t *testing.T, ads []adindex.Ad) *Server {
	t.Helper()
	ec, err := shard.NewElastic(ads, 2, shard.ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(es.Close)
	nc, err := shard.DialRoute(func() (*shard.Route, error) { return ec.RouteOver(es.Addrs()), nil }, "", shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)
	return NewRemote(nc, Config{})
}

// TestRemoteSearchOverRecords: the front end of a static route and that of
// an elastic cluster's live route serve the same body over the same
// catalog.
func TestRemoteSearchOverRecords(t *testing.T) {
	static, _, _ := startRemoteServer(t, Config{}, shard.Options{})
	records := startElasticFrontEnd(t, testCatalog())
	for _, q := range []string{"cheap used books", "running shoes today", "nothing matches this", "books"} {
		want := withoutVolatile(serve(t, static, "GET", searchTarget(q, "broad"), ""))
		got := withoutVolatile(serve(t, records, "GET", searchTarget(q, "broad"), ""))
		if got != want {
			t.Errorf("%q over records:\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestElasticFlagsReachTheReply: what an elastic shard left out is in the
// front end's reply, as it is in a local server's. Forty one-word ads and
// the query of all forty words: every shard walks every word, and the
// answer is all forty, unflagged. Add an ad on every pair of the words and
// the same query's walk reaches its bound (every pair is a locator, so the
// walk descends below each): the answer is a verified part of the full
// one, flagged truncated, and counted.
func TestElasticFlagsReachTheReply(t *testing.T) {
	var ads []adindex.Ad
	var words []string
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
		ads = append(ads, adindex.NewAd(uint64(i+1), words[i], adindex.Meta{}))
	}
	q := strings.Join(words, " ")
	target := searchTarget(q, "broad")
	want := idsOf(bruteForce(ads, "broad", q))
	for name, s := range map[string]*Server{
		"elastic": startElasticFrontEnd(t, ads),
		"local":   New(adindex.Build(ads, adindex.Options{}), Config{}),
	} {
		var res searchResponse
		if err := json.Unmarshal(serve(t, s, "GET", target, ""), &res); err != nil {
			t.Fatal(err)
		}
		got := res.IDs
		if name == "local" {
			got = idsOf(res.Ads)
		}
		got = slices.Clone(got)
		slices.Sort(got)
		if !slices.Equal(got, want) || res.Truncated {
			t.Fatalf("%s: the 40-word query matched %v, truncated %v; brute force %v", name, got, res.Truncated, want)
		}
	}

	for i := range words {
		for j := i + 1; j < len(words); j++ {
			ads = append(ads, adindex.NewAd(uint64(len(ads)+1), words[i]+" "+words[j], adindex.Meta{}))
		}
	}
	want = idsOf(bruteForce(ads, "broad", q))
	for name, s := range map[string]*Server{
		"elastic": startElasticFrontEnd(t, ads),
		"local":   New(adindex.Build(ads, adindex.Options{}), Config{}),
	} {
		body := serve(t, s, "GET", target, "")
		var res searchResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		got := res.IDs
		if name == "local" {
			got = idsOf(res.Ads)
		}
		got = slices.Clone(got)
		slices.Sort(got)
		if !res.Truncated || !bytes.Contains(body, []byte(`"truncated":true`)) || len(got) >= len(want) {
			t.Fatalf("%s: %d of %d ads, truncated %v: the walk bound did not bite", name, len(got), len(want), res.Truncated)
		}
		for _, id := range got {
			if _, found := slices.BinarySearch(want, id); !found {
				t.Fatalf("%s: truncated answer holds ad %d, which does not match", name, id)
			}
		}
		if n := s.Metrics().BudgetTruncated.Load(); n != 1 {
			t.Errorf("%s: budget_truncated = %d, want 1", name, n)
		}
	}
}

// idsOf returns the IDs of ads, in order.
func idsOf(ads []adindex.Ad) []uint64 {
	ids := make([]uint64, len(ads))
	for i := range ads {
		ids[i] = ads[i].ID
	}
	return ids
}

// TestRemoteSearchAllocs pins what a fanned-out /search costs the front
// end once its scratches are warm: the Result with its ids and meta, the
// second shard's goroutine, the unescaped query and the Content-Length
// header — nothing per match, and nothing for encoding the reply.
func TestRemoteSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 1801})
	s := startElasticFrontEnd(t, c.Ads)
	req := httptest.NewRequest("GET", searchTarget(c.Ads[0].Phrase+" "+c.Ads[1].Phrase, "broad"), nil)
	w := &reusedWriter{h: http.Header{}}
	s.handleSearch(w, req)
	if w.code != 0 || w.n == 0 {
		t.Fatalf("warm-up request: status %d, %d bytes", w.code, w.n)
	}
	allocs := testing.AllocsPerRun(300, func() { s.handleSearch(w, req) })
	if w.code != 0 {
		t.Fatalf("measured requests: status %d", w.code)
	}
	if allocs > 11 {
		t.Errorf("a fanned-out /search costs %.1f allocations, want <= 11", allocs)
	}
	t.Logf("%.1f allocations per fanned-out reply", allocs)
}

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
	"strings"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// startRemoteServer stands up a full split deployment over loopback: a
// static two-shard cluster's index servers, an ad-metadata server, and a
// remote-mode front-end on the frozen route whose shard 0 connection runs
// through a faultnet proxy so tests can kill and restore it.
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
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adSrv.Close() })
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
	nc, err := shard.DialReplicaShards(
		[][]string{{proxy.Addr()}, {addrs[1]}}, adSrv.Addr(), sopts)
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
	if res.Degraded || res.MetaMissing {
		t.Errorf("healthy result flagged degraded: %+v", res)
	}
	// Metadata is fetched from the ad server and aligned with the IDs.
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
		"meta missing":    {IDs: ids, Degraded: true, MetaMissing: true},
		"truncated":       {IDs: ids, Meta: meta, Truncated: true},
		"cutoff":          {IDs: ids, Meta: meta, CutoffApplied: true},
		"everything": {IDs: ids, Degraded: true, FailedShards: []int{1}, MetaMissing: true,
			Truncated: true, CutoffApplied: true},
	}
	for name, res := range cases {
		for _, q := range []string{"cheap used books", "caf\u00e9 <b>\"5\u2028\" \x00\xff"} {
			want, err := json.Marshal(searchResponse{
				Query: q, Type: "broad", Matched: len(res.IDs), TookUS: 1234,
				IDs: res.IDs, Meta: res.Meta, Degraded: res.Degraded, FailedShards: res.FailedShards,
				MetaMissing: res.MetaMissing, Truncated: res.Truncated, CutoffApplied: res.CutoffApplied,
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
// cluster on its records route, with no ad server.
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

// TestRemoteSearchOverRecords: the front end of a records route serves
// the same body as the two-hop deployment over the same catalog.
func TestRemoteSearchOverRecords(t *testing.T) {
	twoHop, _, _ := startRemoteServer(t, Config{}, shard.Options{})
	records := startElasticFrontEnd(t, testCatalog())
	for _, q := range []string{"cheap used books", "running shoes today", "nothing matches this", "books"} {
		want := withoutVolatile(serve(t, twoHop, "GET", searchTarget(q, "broad"), ""))
		got := withoutVolatile(serve(t, records, "GET", searchTarget(q, "broad"), ""))
		if got != want {
			t.Errorf("%q over records:\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestElasticFlagsReachTheReply: what an elastic shard left out is in the
// front end's reply. Forty one-word ads and the query of all forty words:
// every shard cuts it down to MaxQueryWords, the answer is short, and the
// reply says cutoff_applied — as the same corpus served locally does.
func TestElasticFlagsReachTheReply(t *testing.T) {
	var ads []adindex.Ad
	var words []string
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
		ads = append(ads, adindex.NewAd(uint64(i+1), words[i], adindex.Meta{}))
	}
	target := searchTarget(strings.Join(words, " "), "broad")
	for name, s := range map[string]*Server{
		"elastic": startElasticFrontEnd(t, ads),
		"local":   New(adindex.Build(ads, adindex.Options{}), Config{}),
	} {
		body := serve(t, s, "GET", target, "")
		var res searchResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Matched == 0 || res.Matched >= len(ads) {
			t.Fatalf("%s: the 40-word query matched %d of 40: the cutoff did not bite", name, res.Matched)
		}
		if !res.CutoffApplied || !bytes.Contains(body, []byte(`"cutoff_applied":true`)) {
			t.Errorf("%s: a short answer (%d of 40) without cutoff_applied: %s", name, res.Matched, body)
		}
		if got := s.Metrics().Cutoffs.Load(); got != 1 {
			t.Errorf("%s: cutoffs counter = %d, want 1", name, got)
		}
	}
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

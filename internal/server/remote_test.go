// Remote (distributed front-end) mode: /search fanned out over shard
// servers with degradation surfaced in responses, metrics, and /readyz.
package server

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"adindex"
	"adindex/internal/faultnet"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// startRemoteServer stands up a full split deployment over loopback: two
// index shard servers (via ShardedIndex.ServeShards), an ad-metadata
// server, and a remote-mode front-end whose shard 0 connection runs
// through a faultnet proxy so tests can kill and restore it.
func startRemoteServer(t *testing.T, cfg Config, sopts shard.Options) (*Server, string, *faultnet.Proxy) {
	t.Helper()
	sx, err := adindex.NewSharded(testCatalog(), 2, adindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addrs, closeShards, err := sx.ServeShards()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeShards)
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
		Config{BackendLossGrace: grace},
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

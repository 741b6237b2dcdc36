// Elastic mode: /admin/rebalance topology operations, the "elastic"
// /metrics section, and /readyz semantics while a handoff is in flight.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adindex/internal/multiserver"
	"adindex/internal/shard"
)

// postJSON POSTs to url (no body) and decodes the JSON response,
// failing on any non-200 status.
func postJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := testClient.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}

// startElasticServer stands up a single-process elastic deployment over
// loopback — an ElasticCluster serving epoch-checked TCP positions, a
// routed NetClient looped back over them — and a remote-mode HTTP
// front-end with the cluster attached.
// This is exactly the topology `adserve -elastic` runs.
func startElasticServer(t *testing.T, cfg Config) (*Server, string, *shard.ElasticCluster) {
	t.Helper()
	ec, err := shard.NewElastic(testCatalog(), 2, shard.ElasticOptions{Slots: 16, MaxShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { es.Close() })
	nc, err := shard.DialRoute(func() (*shard.Route, error) {
		return ec.RouteOver(es.Addrs()), nil
	}, "", shard.Options{Conn: multiserver.ConnOpts{
		Timeout:          300 * time.Millisecond,
		MaxRetries:       1,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)

	s := NewRemote(nc, cfg)
	s.AttachRebalancer(ec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	return s, "http://" + s.Addr(), ec
}

func TestAdminRebalance(t *testing.T) {
	_, base, ec := startElasticServer(t, Config{})

	// GET: status of the idle cluster.
	var st shard.RebalanceStatus
	getJSON(t, base+"/admin/rebalance", &st)
	if st.Epoch != 1 || st.NumShards != 2 || st.Migrating {
		t.Fatalf("idle status = %+v", st)
	}

	// POST split of shard 0 → provisions shard 2, bumps the epoch.
	var resp struct {
		Op       string                `json:"op"`
		NewShard int                   `json:"new_shard"`
		Status   shard.RebalanceStatus `json:"status"`
	}
	postJSON(t, base+"/admin/rebalance?op=split&shard=0", &resp)
	if resp.NewShard != 2 || resp.Status.Epoch != 2 || resp.Status.Completed != 1 {
		t.Fatalf("split response = %+v", resp)
	}
	if got := ec.Epoch(); got != 2 {
		t.Fatalf("cluster epoch = %d after split", got)
	}

	// Searches still answer correctly post-split (routed client
	// refreshed through the epoch-mismatch path).
	var sr struct {
		Matched  int      `json:"matched"`
		IDs      []uint64 `json:"ids"`
		Degraded bool     `json:"degraded"`
	}
	getJSON(t, base+"/search?q=cheap+used+books", &sr)
	if sr.Matched != 4 || sr.Degraded {
		t.Fatalf("post-split search = %+v, want 4 matches, not degraded", sr)
	}

	// Migrate half of shard 1 onto the new shard, then merge it back.
	postJSON(t, base+"/admin/rebalance?op=migrate&from=1&to=2", &resp)
	if resp.Status.Epoch != 3 {
		t.Fatalf("migrate response = %+v", resp)
	}
	postJSON(t, base+"/admin/rebalance?op=merge&from=2&to=0", &resp)
	if resp.Status.Epoch != 4 || resp.Status.ActiveShards != 2 {
		t.Fatalf("merge response = %+v", resp)
	}

	// /metrics surfaces the elastic section.
	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Elastic == nil || snap.Elastic.Epoch != 4 || snap.Elastic.Completed != 3 {
		t.Fatalf("metrics elastic = %+v", snap.Elastic)
	}

	// Bad requests are rejected without touching the topology.
	if got := status(t, http.MethodPost, base+"/admin/rebalance?op=shrink"); got != http.StatusBadRequest {
		t.Fatalf("bad op: status %d", got)
	}
	if got := status(t, http.MethodPost, base+"/admin/rebalance?op=migrate&from=0"); got != http.StatusBadRequest {
		t.Fatalf("missing to: status %d", got)
	}
	// Invalid topology change: rolled back, reported as a conflict.
	if got := status(t, http.MethodPost, base+"/admin/rebalance?op=merge&from=0&to=0"); got != http.StatusConflict {
		t.Fatalf("self-merge: status %d", got)
	}
	if got := ec.Epoch(); got != 4 {
		t.Fatalf("epoch moved to %d on rejected ops", got)
	}
}

// TestHealthAfterMerge: a merged-away shard owns no slots and is never
// queried again, so it can never be marked dead; /metrics must stop
// counting it as a live backend once the client is on the new route.
func TestHealthAfterMerge(t *testing.T) {
	_, base, _ := startElasticServer(t, Config{})
	var resp struct {
		Status shard.RebalanceStatus `json:"status"`
	}
	postJSON(t, base+"/admin/rebalance?op=merge&from=1&to=0", &resp)
	if resp.Status.ActiveShards != 1 {
		t.Fatalf("merge response = %+v", resp)
	}
	// The next search hits the stale-epoch rejection and moves the client
	// onto the post-merge route.
	var sr struct {
		Matched int `json:"matched"`
	}
	getJSON(t, base+"/search?q=cheap+used+books", &sr)
	if sr.Matched != 4 {
		t.Fatalf("post-merge search matched %d, want 4", sr.Matched)
	}
	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	h := snap.Backends.Health
	if h.LiveShards != 1 || len(h.Shards) != 1 || h.Shards[0].Shard != 0 || !h.Shards[0].Live {
		t.Fatalf("backends.health after merging 1 into 0 = %+v, want shard 0 alone", h)
	}
}

func TestAdminRebalanceNotElastic(t *testing.T) {
	_, _, base := startTestServer(t, Config{})
	if got := status(t, http.MethodGet, base+"/admin/rebalance"); got != http.StatusNotImplemented {
		t.Fatalf("non-elastic node: status %d, want 501", got)
	}
}

// TestReadyzDuringRebalance: a node stays ready mid-handoff (queries
// keep flowing from the old owner until cutover) but the probe body
// reports the in-flight migration.
func TestReadyzDuringRebalance(t *testing.T) {
	_, base, ec := startElasticServer(t, Config{})

	readyz := func() (int, string) {
		resp, err := testClient.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := readyz()
	if code != http.StatusOK || strings.Contains(body, "rebalancing") {
		t.Fatalf("idle readyz = %d %q", code, body)
	}

	// Probe from inside the handoff: the hook runs mid-phase, when the
	// migration is installed but cutover has not happened.
	var midCode int
	var midBody string
	ec.SetRebalanceHook(func(phase string) error {
		if phase == "catchup" && midCode == 0 {
			midCode, midBody = readyz()
		}
		return nil
	})
	if _, err := ec.Split(0); err != nil {
		t.Fatal(err)
	}
	ec.SetRebalanceHook(nil)

	if midCode != http.StatusOK {
		t.Fatalf("mid-handoff readyz = %d %q, want 200", midCode, midBody)
	}
	if !strings.Contains(midBody, "rebalancing: split") {
		t.Fatalf("mid-handoff readyz body %q does not report the migration", midBody)
	}

	code, body = readyz()
	if code != http.StatusOK || strings.Contains(body, "rebalancing") {
		t.Fatalf("post-cutover readyz = %d %q", code, body)
	}
}

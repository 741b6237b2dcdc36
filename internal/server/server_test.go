package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adindex"
)

func testCatalog() []adindex.Ad {
	return []adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{BidMicros: 100}),
		adindex.NewAd(2, "cheap books", adindex.Meta{BidMicros: 200}),
		adindex.NewAd(3, "running shoes", adindex.Meta{BidMicros: 300}),
		adindex.NewAd(4, "cheap used books", adindex.Meta{BidMicros: 400}),
		adindex.NewAd(5, "books", adindex.Meta{BidMicros: 500}),
	}
}

func startTestServer(t *testing.T, cfg Config) (*Server, *adindex.Index, string) {
	t.Helper()
	ix := adindex.Build(testCatalog(), adindex.Options{})
	s := New(ix, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	return s, ix, "http://" + s.Addr()
}

// testClient is the one HTTP client of this package's tests. They own it
// so that drain can close its idle connections first: a connection the
// transport dialed but never sent a request on sits in StateNew on the
// server side, and http.Server.Shutdown waits out a 5 s grace before it
// treats such a connection as idle.
var testClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

// drain shuts s down gracefully, with a budget above net/http's 5 s
// grace for connections that never sent a request.
func drain(s *Server) error {
	testClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func search(t *testing.T, base, q, typ string) searchResponse {
	t.Helper()
	url := base + "/search?q=" + strings.ReplaceAll(q, " ", "+")
	if typ != "" {
		url += "&type=" + typ
	}
	var out searchResponse
	getJSON(t, url, &out)
	return out
}

// TestEndToEnd is the acceptance test: a live loopback server under
// concurrent broad/exact/phrase traffic with interleaved mutations. It
// asserts cache hits happen, mutations are never masked by stale cache
// entries, /metrics reports real histograms, and shutdown drains cleanly.
// Run it under -race to check the full concurrent path.
func TestEndToEnd(t *testing.T) {
	s, ix, base := startTestServer(t, Config{})

	// Warm the cache, then check the repeat is served from it.
	first := search(t, base, "cheap used books", "broad")
	if first.Cached {
		t.Error("first query reported cached")
	}
	if first.Matched != 4 { // ads 1, 2, 4, 5 all broad-match
		t.Errorf("matched = %d, want 4", first.Matched)
	}
	repeat := search(t, base, "used cheap books", "broad") // reordered: same word set
	if !repeat.Cached {
		t.Error("reordered repeat query missed the cache")
	}

	// Concurrent mixed traffic with interleaved mutations via HTTP.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			types := []string{"broad", "exact", "phrase"}
			for i := 0; i < 30; i++ {
				q := []string{"cheap used books", "used books", "running shoes fast"}[i%3]
				search(t, base, q, types[(i+g)%3])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body, _ := json.Marshal(insertRequest{
				ID:     uint64(100 + i),
				Phrase: fmt.Sprintf("gadget model%d", i),
				Meta:   adindex.Meta{BidMicros: 50},
			})
			resp, err := testClient.Post(base+"/insert", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ix.Optimize() // concurrent layout swap must not disturb serving
	}()
	wg.Wait()

	// No stale results: a query for a just-inserted ad must match it even
	// though the same query was served (and cached) before the insert.
	pre := search(t, base, "widget deluxe", "broad")
	if pre.Matched != 0 {
		t.Fatalf("unexpected pre-insert match: %+v", pre)
	}
	body, _ := json.Marshal(insertRequest{ID: 999, Phrase: "widget deluxe", Meta: adindex.Meta{BidMicros: 77}})
	resp, err := testClient.Post(base+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	post := search(t, base, "widget deluxe", "broad")
	if post.Matched != 1 || post.Cached {
		t.Fatalf("post-insert query stale: matched=%d cached=%v", post.Matched, post.Cached)
	}
	if post.Ads[0].ID != 999 {
		t.Fatalf("post-insert ad = %+v", post.Ads[0])
	}
	// Same via HTTP delete.
	body, _ = json.Marshal(deleteRequest{ID: 999, Phrase: "widget deluxe"})
	resp, err = testClient.Post(base+"/delete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := search(t, base, "widget deluxe", "broad"); got.Matched != 0 {
		t.Fatalf("deleted ad still served: %+v", got)
	}

	// Metrics: the histogram and counters reflect the traffic above.
	var m MetricsSnapshot
	getJSON(t, base+"/metrics", &m)
	if m.Latency.Count == 0 || len(m.Latency.BucketUS) == 0 {
		t.Errorf("latency histogram empty: %+v", m.Latency)
	}
	if m.Cache.Hits == 0 {
		t.Error("cache hits = 0 after repeated queries")
	}
	if m.Requests.Broad == 0 || m.Requests.Exact == 0 || m.Requests.Phrase == 0 {
		t.Errorf("per-type request counts incomplete: %+v", m.Requests)
	}
	if m.Mutations == 0 {
		t.Error("mutation count = 0")
	}
	if m.Epoch == 0 {
		t.Error("epoch = 0 after mutations")
	}

	// Probes.
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := testClient.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", probe, resp.StatusCode)
		}
	}

	// Graceful shutdown drains cleanly.
	if err := drain(s); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if m := s.Metrics().InFlight.Load(); m != 0 {
		t.Errorf("in-flight after drain = %d", m)
	}
}

// TestShutdownDrainsInflight verifies that a request already executing
// when Shutdown begins completes successfully instead of being cut off.
func TestShutdownDrainsInflight(t *testing.T) {
	s, _, base := startTestServer(t, Config{RequestTimeout: 5 * time.Second})
	s.handlerDelay = 300 * time.Millisecond

	done := make(chan error, 1)
	go func() {
		resp, err := testClient.Get(base + "/search?q=used+books")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("in-flight request got %d during drain", resp.StatusCode)
			return
		}
		done <- nil
	}()
	// Wait until the request is admitted, then shut down underneath it.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	if err := drain(s); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("shutdown returned in %v, before the in-flight request could finish", elapsed)
	}
}

// TestSheddingUnderSaturation saturates a 1-slot, 1-queue server with slow
// requests and checks that overflow is shed with 503 + Retry-After while
// admitted requests still succeed.
func TestSheddingUnderSaturation(t *testing.T) {
	s, _, base := startTestServer(t, Config{
		MaxInflight:    1,
		MaxQueue:       1,
		RequestTimeout: 2 * time.Second,
		RetryAfter:     3 * time.Second,
	})
	s.handlerDelay = 150 * time.Millisecond

	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok200, shed503 := 0, 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := testClient.Get(base + "/search?q=used+books")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200++
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") != "3" {
					t.Errorf("Retry-After = %q, want \"3\"", resp.Header.Get("Retry-After"))
				}
				shed503++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok200 == 0 {
		t.Error("no requests admitted under saturation")
	}
	if shed503 == 0 {
		t.Error("no requests shed: saturation not exercised")
	}
	if got := s.Metrics().Shed.Load() + s.Metrics().Timeouts.Load(); got == 0 {
		t.Error("shed+timeout counters = 0")
	}
	t.Logf("ok=%d shed=%d", ok200, shed503)
}

// TestRunHandlesSigterm exercises the production lifecycle: Run in a
// goroutine, SIGTERM to the process, Run returns nil after draining.
func TestRunHandlesSigterm(t *testing.T) {
	ix := adindex.Build(testCatalog(), adindex.Options{})
	s := New(ix, Config{ShutdownTimeout: 10 * time.Second}) // above net/http's 5 s StateNew grace, as drain is
	done := make(chan error, 1)
	go func() { done <- s.Run("127.0.0.1:0") }()

	// Wait for the port to come up.
	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never bound")
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + s.Addr()
	for {
		resp, err := testClient.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Run registers its signal handler before binding, so once the port
	// answers, SIGTERM is guaranteed to be caught (and not kill the test
	// binary).
	testClient.CloseIdleConnections()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
}

func TestBadRequests(t *testing.T) {
	s, _, base := startTestServer(t, Config{})
	for _, url := range []string{"/search", "/search?q=%20", "/search?q=x&type=fuzzy"} {
		resp, err := testClient.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", url, resp.StatusCode)
		}
	}
	// A phrase of punctuation tokenizes to no word: no query could ever
	// retrieve the ad, so it is refused rather than stored.
	resp, err := testClient.Post(base+"/insert", "application/json", strings.NewReader(`{"id":5,"phrase":" ?! "}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "phrase has no indexable word") {
		t.Errorf("POST /insert of a wordless phrase = %d %q, want 400 phrase has no indexable word", resp.StatusCode, body)
	}
	if got := s.Metrics().BadRequests.Load(); got != 4 {
		t.Errorf("bad request counter = %d, want 4", got)
	}
	if got := s.Metrics().Mutations.Load(); got != 0 {
		t.Errorf("mutations counter = %d after a refused insert", got)
	}
}

func TestStartBindFailure(t *testing.T) {
	ix := adindex.Build(testCatalog(), adindex.Options{})
	a := New(ix, Config{})
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		a.Shutdown(ctx)
	}()
	b := New(ix, Config{})
	if err := b.Start(a.Addr()); err == nil {
		t.Fatal("second bind on the same port succeeded")
	}
}

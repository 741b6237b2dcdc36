package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"adindex"
	"adindex/internal/durable"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestRecoveringLifecycle drives the durable startup sequence: the
// server binds and answers probes while "recovering" (no index), refuses
// index-backed endpoints with 503, then flips ready once InstallIndex
// publishes the recovered index — and the shutdown drain flushes the WAL
// so acknowledged mutations survive even under SyncNone.
func TestRecoveringLifecycle(t *testing.T) {
	s := New(nil, Config{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	// Live but not ready: orchestrators must see the difference.
	if code, _ := getStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during recovery = %d, want 200", code)
	}
	if code, body := getStatus(t, base+"/readyz"); code != http.StatusServiceUnavailable || body != "recovering\n" {
		t.Fatalf("readyz during recovery = %d %q, want 503 recovering", code, body)
	}
	for _, path := range []string{"/search?q=books", "/stats"} {
		if code, _ := getStatus(t, base+path); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s during recovery = %d, want 503", path, code)
		}
	}
	var m MetricsSnapshot
	getJSON(t, base+"/metrics", &m)
	if m.Durability == nil || !m.Durability.Recovering {
		t.Fatalf("metrics during recovery missing durability.recovering: %+v", m.Durability)
	}
	if m.NotReady < 2 {
		t.Fatalf("NotReady = %d, want >= 2 (the two refused requests)", m.NotReady)
	}

	// Recover a durable index (SyncNone so the shutdown flush below is
	// what makes the WAL durable) and install it.
	dir := t.TempDir()
	ix, report, err := adindex.OpenDurable(dir, adindex.Options{}, adindex.DurableConfig{
		Sync:      durable.SyncNone,
		Bootstrap: testCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.InstallIndex(ix, report)

	if code, _ := getStatus(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after install = %d, want 200", code)
	}
	res := search(t, base, "cheap used books", "broad")
	if res.Matched != 4 {
		t.Fatalf("matched = %d, want 4", res.Matched)
	}
	body, _ := json.Marshal(insertRequest{ID: 99, Phrase: "durable flush check", Meta: adindex.Meta{BidMicros: 7}})
	resp, err := testClient.Post(base+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d", resp.StatusCode)
	}

	getJSON(t, base+"/metrics", &m)
	if m.Durability == nil || m.Durability.Store == nil {
		t.Fatalf("metrics missing durability store section: %+v", m.Durability)
	}
	if m.Durability.Recovery == nil || !m.Durability.Recovery.Fresh {
		t.Fatalf("metrics missing recovery report: %+v", m.Durability.Recovery)
	}
	if m.Durability.Store.Records != 1 {
		t.Fatalf("store records = %d, want 1", m.Durability.Store.Records)
	}

	// Graceful shutdown drains and flushes the WAL; a new process must
	// see the acknowledged insert even though SyncNone never fsync'd it
	// on the mutation path.
	if err := drain(s); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, rep2, err := adindex.OpenDurable(dir, adindex.Options{}, adindex.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if rep2.Degraded() {
		t.Fatalf("reopen degraded: %+v", rep2)
	}
	if got := ix2.NumAds(); got != len(testCatalog())+1 {
		t.Fatalf("recovered %d ads, want %d (insert lost in shutdown flush?)", got, len(testCatalog())+1)
	}
	if len(ix2.BroadMatch("durable flush check")) != 1 {
		t.Fatal("inserted ad not matchable after restart")
	}
}

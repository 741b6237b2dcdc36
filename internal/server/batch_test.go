package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

func postBatch(t *testing.T, base string, body any) (*http.Response, batchResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(base+"/search/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return resp, out
}

func TestSearchBatch(t *testing.T) {
	_, ix, base := startTestServer(t, Config{})

	resp, out := postBatch(t, base, batchRequest{Queries: []string{
		"cheap used books", "running shoes", "nothing matches this",
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Matched != 4 { // ads 1, 2, 4, 5
		t.Errorf("query 0 matched = %d, want 4", out.Results[0].Matched)
	}
	if out.Results[1].Matched != 1 {
		t.Errorf("query 1 matched = %d, want 1", out.Results[1].Matched)
	}
	if out.Results[2].Matched != 0 {
		t.Errorf("query 2 matched = %d, want 0", out.Results[2].Matched)
	}
	if out.Epoch != ix.Epoch() {
		t.Errorf("batch epoch = %d, index epoch = %d", out.Epoch, ix.Epoch())
	}

	// The singular endpoint shares the cache: a repeat batch is all hits.
	_, again := postBatch(t, base, batchRequest{Queries: []string{"used cheap books"}})
	if len(again.Results) != 1 || !again.Results[0].Cached {
		t.Errorf("reordered repeat in batch missed the cache: %+v", again.Results)
	}

	// A mutation invalidates batch entries through the epoch, same as
	// /search.
	ix.Insert(adindex.NewAd(9, "cheap paperback books", adindex.Meta{}))
	_, after := postBatch(t, base, batchRequest{Queries: []string{"cheap used paperback books"}})
	if after.Results[0].Cached {
		t.Error("post-mutation batch served a stale cache entry")
	}
	if after.Results[0].Matched != 5 {
		t.Errorf("post-mutation matched = %d, want 5", after.Results[0].Matched)
	}
}

func TestSearchBatchValidation(t *testing.T) {
	_, _, base := startTestServer(t, Config{})

	if resp, _ := postBatch(t, base, batchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, base, batchRequest{Queries: []string{"ok", "  "}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("blank query status = %d, want 400", resp.StatusCode)
	}
	big := batchRequest{Queries: make([]string, MaxBatchQueries+1)}
	for i := range big.Queries {
		big.Queries[i] = "q"
	}
	if resp, _ := postBatch(t, base, big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
	resp, err := testClient.Get(base + "/search/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d, want 405", resp.StatusCode)
	}
}

// BenchmarkSearchBatch32 is what one /search/batch of 32 queries costs at
// the handler, every one a miss (the cache is off): the decode of the
// request body, 32 matches on one view, their selection-free encode.
func BenchmarkSearchBatch32(b *testing.B) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 1})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 2000, Seed: 2})
	s := New(adindex.Build(c.Ads, adindex.Options{}), Config{CacheEntries: -1})
	var bodies []string
	for at := 0; at+32 <= len(wl.Queries); at += 32 {
		var req batchRequest
		for i := range wl.Queries[at : at+32] {
			req.Queries = append(req.Queries, strings.Join(wl.Queries[at+i].Words, " "))
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	w := &reusedWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/search/batch", strings.NewReader(bodies[i%len(bodies)]))
		s.handleSearchBatch(w, req)
		if w.code != 0 {
			b.Fatalf("batch answered %d", w.code)
		}
	}
}

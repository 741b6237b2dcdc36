package server

import (
	"net/http"
	"testing"

	"adindex"
	"adindex/internal/rewrite"
)

func startRewriteServer(t *testing.T, cfg Config) (*Server, *adindex.Index, string) {
	t.Helper()
	classes, err := rewrite.NewClasses([][]string{{"cheap", "discount"}})
	if err != nil {
		t.Fatal(err)
	}
	ix := adindex.Build(testCatalog(), adindex.Options{
		Rewrite: &adindex.RewriteOptions{Synonyms: classes},
	})
	s := New(ix, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(s) })
	return s, ix, "http://" + s.Addr()
}

func searchStatus(t *testing.T, base, rawQuery string) int {
	t.Helper()
	resp, err := testClient.Get(base + "/search?" + rawQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSearchRewrite(t *testing.T) {
	_, _, base := startRewriteServer(t, Config{})

	// A one-letter typo finds the same ads as the clean query, flagged
	// fuzzy, and the response carries the expansion stats.
	var out searchResponse
	getJSON(t, base+"/search?q=chesp+used+books&rewrite=on", &out)
	clean := search(t, base, "cheap used books", "broad")
	if out.Matched != clean.Matched {
		t.Errorf("typo matched %d ads, clean query %d", out.Matched, clean.Matched)
	}
	var fuzzy int
	for _, m := range out.Matches {
		if m.Info.Type == adindex.MatchFuzzy {
			fuzzy++
		}
	}
	if fuzzy == 0 {
		t.Errorf("no fuzzy-flagged results for a typo query: %+v", out.Matches)
	}
	if out.Rewrite == nil || out.Rewrite.Probes < 2 || out.Rewrite.FuzzyHits == 0 {
		t.Errorf("rewrite stats = %+v, want >=2 probes and fuzzy hits", out.Rewrite)
	}

	// Synonym substitution reaches ads through the class table.
	getJSON(t, base+"/search?q=discount+used+books&rewrite=on", &out)
	var synonym bool
	for _, m := range out.Matches {
		if m.Info.Type == adindex.MatchSynonym {
			synonym = true
		}
	}
	if !synonym {
		t.Errorf("no synonym-flagged results for a class-member query: %+v", out.Matches)
	}

	// rewrite=off (and omitting the param) serves the plain cached path.
	off := search(t, base, "cheap used books", "")
	if off.Matched != clean.Matched || off.Matches != nil || off.Rewrite != nil {
		t.Errorf("rewrite=off response carries rewrite fields: %+v", off)
	}

	// Parameter validation.
	if code := searchStatus(t, base, "q=books&rewrite=maybe"); code != http.StatusBadRequest {
		t.Errorf("rewrite=maybe status = %d, want 400", code)
	}
	if code := searchStatus(t, base, "q=books&type=exact&rewrite=on"); code != http.StatusBadRequest {
		t.Errorf("rewrite=on with type=exact status = %d, want 400", code)
	}
}

func TestSearchRewriteDisabledIndex(t *testing.T) {
	_, _, base := startTestServer(t, Config{})
	if code := searchStatus(t, base, "q=books&rewrite=on"); code != http.StatusBadRequest {
		t.Errorf("rewrite=on on a non-rewrite index status = %d, want 400", code)
	}
	// rewrite=off stays valid on any index.
	if code := searchStatus(t, base, "q=books&rewrite=off"); code != http.StatusOK {
		t.Errorf("rewrite=off status = %d, want 200", code)
	}
}

func TestSearchBatchRewrite(t *testing.T) {
	_, _, base := startRewriteServer(t, Config{})

	resp, out := postBatch(t, base, batchRequest{
		Queries: []string{"chesp used books", "running shoes"},
		Rewrite: "on",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rewrite batch status = %d", resp.StatusCode)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
	if out.Results[0].Matched != 4 { // same ads the clean query reaches
		t.Errorf("typo query matched = %d, want 4", out.Results[0].Matched)
	}
	var fuzzy int
	for _, m := range out.Results[0].Matches {
		if m.Info.Type == adindex.MatchFuzzy {
			fuzzy++
		}
	}
	if fuzzy == 0 {
		t.Errorf("typo batch query has no fuzzy results: %+v", out.Results[0].Matches)
	}
	if out.Results[1].Matched != 1 || out.Results[1].Matches[0].Info.Type != adindex.MatchExact {
		t.Errorf("clean batch query = %+v, want 1 exact result", out.Results[1])
	}

	if resp, _ := postBatch(t, base, batchRequest{Queries: []string{"x"}, Rewrite: "sometimes"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid batch rewrite status = %d, want 400", resp.StatusCode)
	}
}

func TestSearchBatchRewriteDisabledIndex(t *testing.T) {
	_, _, base := startTestServer(t, Config{})
	if resp, _ := postBatch(t, base, batchRequest{Queries: []string{"books"}, Rewrite: "on"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch rewrite=on on a non-rewrite index status = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsRewriteSection(t *testing.T) {
	_, _, base := startRewriteServer(t, Config{})

	// Present (zeroed) before any rewritten query runs.
	var m MetricsSnapshot
	getJSON(t, base+"/metrics", &m)
	if m.Rewrite == nil {
		t.Fatal("rewrite-enabled index has no rewrite metrics section")
	}
	if m.Rewrite.Queries != 0 {
		t.Errorf("rewrite queries = %d before any ran", m.Rewrite.Queries)
	}

	var out searchResponse
	getJSON(t, base+"/search?q=chesp+used+books&rewrite=on", &out)
	getJSON(t, base+"/search?q=discount+used+books&rewrite=on", &out)
	getJSON(t, base+"/metrics", &m)
	if m.Rewrite.Queries != 2 {
		t.Errorf("rewrite queries = %d, want 2", m.Rewrite.Queries)
	}
	if m.Rewrite.Probes < 4 || m.Rewrite.Variants == 0 {
		t.Errorf("rewrite metrics = %+v, want probes >= 4 and variants > 0", m.Rewrite)
	}
	if m.Rewrite.FuzzyHits == 0 || m.Rewrite.SynonymHits == 0 {
		t.Errorf("rewrite metrics = %+v, want fuzzy and synonym hits", m.Rewrite)
	}

	// A plain index serves no rewrite section.
	_, _, plainBase := startTestServer(t, Config{})
	var pm MetricsSnapshot
	getJSON(t, plainBase+"/metrics", &pm)
	if pm.Rewrite != nil {
		t.Errorf("plain index metrics carry a rewrite section: %+v", pm.Rewrite)
	}
}

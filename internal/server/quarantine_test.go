package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/simclock"
	"adindex/internal/textnorm"
)

func TestQuarantineStrikesAndExpiry(t *testing.T) {
	clk := simclock.NewFake()
	q := NewQuarantineAt(time.Minute, 3, clk.Now)

	// Two strikes do not quarantine.
	q.NoteBudgetBlown(fingerprint("heavy query"))
	q.NoteBudgetBlown(fingerprint("heavy query"))
	if q.Check(fingerprint("heavy query")) {
		t.Fatal("quarantined below the strike threshold")
	}
	// The third strike inside the window does.
	q.NoteBudgetBlown(fingerprint("heavy query"))
	if !q.Check(fingerprint("heavy query")) {
		t.Fatal("three strikes did not quarantine")
	}
	if q.Quarantined() != 1 || q.Rejected() != 1 {
		t.Fatalf("counters: quarantined=%d rejected=%d", q.Quarantined(), q.Rejected())
	}
	// Other fingerprints are unaffected.
	if q.Check(fingerprint("different query")) {
		t.Fatal("unrelated fingerprint quarantined")
	}
	// Expiry: past the TTL the fingerprint serves again.
	clk.Advance(61 * time.Second)
	if q.Check(fingerprint("heavy query")) {
		t.Fatal("quarantine survived its TTL")
	}
	if q.Len() != 0 {
		t.Fatalf("expired entry not dropped lazily: len=%d", q.Len())
	}
}

func TestQuarantineStrikeDecay(t *testing.T) {
	clk := simclock.NewFake()
	q := NewQuarantineAt(time.Minute, 3, clk.Now)

	// Strikes spread wider than one TTL window never accumulate: a
	// heavy-but-legitimate query that occasionally truncates is not
	// poisoned.
	for i := 0; i < 6; i++ {
		q.NoteBudgetBlown(fingerprint("occasionally heavy"))
		clk.Advance(2 * time.Minute)
	}
	if q.Check(fingerprint("occasionally heavy")) {
		t.Fatal("decayed strikes quarantined the query")
	}
	if q.Quarantined() != 0 {
		t.Fatal("promotion counted despite decay")
	}
}

func TestQuarantinePanicIsInstant(t *testing.T) {
	clk := simclock.NewFake()
	q := NewQuarantineAt(time.Minute, 3, clk.Now)
	q.NotePanic(fingerprint("poison"))
	if !q.Check(fingerprint("poison")) {
		t.Fatal("panic did not quarantine instantly")
	}
	clk.Advance(61 * time.Second)
	if q.Check(fingerprint("poison")) {
		t.Fatal("panic quarantine survived its TTL")
	}
}

func TestQuarantineNilIsNoop(t *testing.T) {
	var q *Quarantine // disabled (Config.QuarantineTTL == 0)
	q.NoteBudgetBlown(fingerprint("x"))
	q.NotePanic(fingerprint("x"))
	if q.Check(fingerprint("x")) || q.Len() != 0 || q.Rejected() != 0 {
		t.Fatal("nil quarantine misbehaved")
	}
	if NewQuarantine(0) != nil {
		t.Fatal("ttl=0 should build a nil (disabled) table")
	}
}

func TestQuarantineEvictionCap(t *testing.T) {
	clk := simclock.NewFake()
	q := NewQuarantineAt(time.Minute, 1, clk.Now)
	for i := 0; i < maxQuarantineEntries+100; i++ {
		q.NoteBudgetBlown(fingerprint(strings.Repeat("q", 1+i%50) + string(rune('a'+i%26)) + time.Duration(i).String()))
	}
	if q.Len() > maxQuarantineEntries {
		t.Fatalf("table grew past cap: %d", q.Len())
	}
}

// TestSearchBudgetTruncation drives the HTTP layer with a tight query
// budget: heavy queries answer flagged verified subsets, truncated
// answers are never cached, and repeated blowouts quarantine the
// fingerprint into a fast 503 — through /search and, with a second heavy
// query, through /search/batch.
func TestSearchBudgetTruncation(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 91})
	ix := adindex.Build(c.Ads, adindex.Options{})
	s := New(ix, Config{
		QueryBudget:   1, // everything but the cheapest query truncates
		QuarantineTTL: time.Minute,
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(t.Context()) })
	base := "http://" + s.Addr()

	// Find a query that actually truncates under MaxCost=1: one of the
	// corpus's own phrases padded with frequent words.
	full := ix.BroadMatch(c.Ads[0].Phrase)
	var res searchResponse
	var truncatedQuery, batchQuery string // two, with different fingerprints
	for i := 0; i < len(c.Ads) && batchQuery == ""; i++ {
		probe := ix.Match(nil, adindex.Query{Text: c.Ads[i].Phrase, Budget: adindex.QueryBudget{MaxCost: 1}})
		switch {
		case !probe.Truncated:
		case truncatedQuery == "":
			truncatedQuery = c.Ads[i].Phrase
		case textnorm.SetKey(textnorm.WordSet(c.Ads[i].Phrase)) != textnorm.SetKey(textnorm.WordSet(truncatedQuery)):
			batchQuery = c.Ads[i].Phrase
		}
	}
	if batchQuery == "" {
		t.Skip("no two corpus phrases truncate at MaxCost=1")
	}
	full = ix.BroadMatch(truncatedQuery)

	res = search(t, base, truncatedQuery, "")
	if !res.Truncated {
		t.Fatalf("budgeted response not flagged truncated: %+v", res)
	}
	if res.CostSpent <= 0 {
		t.Fatal("truncated response missing cost_spent")
	}
	if len(res.Ads) >= len(full) {
		t.Fatalf("truncated answer not shorter: %d vs %d", len(res.Ads), len(full))
	}
	// Subset check: every returned ad is in the full answer.
	inFull := map[uint64]bool{}
	for _, ad := range full {
		inFull[ad.ID] = true
	}
	for _, ad := range res.Ads {
		if !inFull[ad.ID] {
			t.Fatalf("truncated answer contains non-match %d", ad.ID)
		}
	}
	// Truncated answers are not cached.
	res = search(t, base, truncatedQuery, "")
	if res.Cached {
		t.Fatal("truncated answer was served from cache")
	}

	// Third blowout strikes out the fingerprint: the next request is
	// fast-rejected 503 before admission.
	search(t, base, truncatedQuery, "")
	resp, err := testClient.Get(base + "/search?q=" + strings.ReplaceAll(truncatedQuery, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined query answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantine rejection missing Retry-After")
	}
	if got := s.metrics.QuarantineRejects.Load(); got != 1 {
		t.Fatalf("QuarantineRejects = %d, want 1", got)
	}
	if got := s.metrics.BudgetTruncated.Load(); got != 3 {
		t.Fatalf("BudgetTruncated = %d, want 3", got)
	}

	// A cheap query still serves normally while the heavy one is out.
	ok := search(t, base, "zzz nonexistent words", "")
	if ok.Truncated {
		t.Fatal("cheap query flagged truncated")
	}

	// The same armor around /search/batch: the heavy query's result is a
	// flagged subset beside a whole one, never cached, and every batch that
	// blows the budget strikes the heavy query's fingerprint.
	batch := batchRequest{Queries: []string{"zzz nonexistent words", batchQuery}}
	inFull = map[uint64]bool{}
	for _, ad := range ix.BroadMatch(batchQuery) {
		inFull[ad.ID] = true
	}
	for attempt := 1; attempt <= DefaultQuarantineStrikes; attempt++ {
		resp, out := postBatch(t, base, batch)
		if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
			t.Fatalf("batch %d: status %d, %d results", attempt, resp.StatusCode, len(out.Results))
		}
		cheap, heavy := out.Results[0], out.Results[1]
		if cheap.Truncated || cheap.CostSpent != 0 {
			t.Fatalf("batch %d: the cheap query's result is flagged: %+v", attempt, cheap)
		}
		if !heavy.Truncated || heavy.CostSpent <= 0 || heavy.Cached {
			t.Fatalf("batch %d: heavy result truncated=%v cost_spent=%d cached=%v, want a fresh flagged answer",
				attempt, heavy.Truncated, heavy.CostSpent, heavy.Cached)
		}
		if len(heavy.Ads) >= len(inFull) {
			t.Fatalf("batch %d: truncated answer not shorter: %d vs %d", attempt, len(heavy.Ads), len(inFull))
		}
		for _, ad := range heavy.Ads {
			if !inFull[ad.ID] {
				t.Fatalf("batch %d: truncated answer contains non-match %d", attempt, ad.ID)
			}
		}
	}
	if got := s.metrics.BudgetTruncated.Load(); got != 3+DefaultQuarantineStrikes {
		t.Fatalf("BudgetTruncated = %d, want %d", got, 3+DefaultQuarantineStrikes)
	}
	// Struck out: /search and any batch holding the query answer 503.
	if code := searchStatus(t, base, "q="+strings.ReplaceAll(batchQuery, " ", "+")); code != http.StatusServiceUnavailable {
		t.Fatalf("/search of the query the batches struck out answered %d, want 503", code)
	}
	if resp, _ := postBatch(t, base, batch); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("batch holding a quarantined query answered %d (Retry-After %q), want 503",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := s.metrics.QuarantineRejects.Load(); got != 3 {
		t.Fatalf("QuarantineRejects = %d, want 3", got)
	}
	if resp, out := postBatch(t, base, batchRequest{Queries: batch.Queries[:1]}); resp.StatusCode != http.StatusOK || !out.Results[0].Cached {
		t.Fatalf("batch without the quarantined query: status %d, %+v", resp.StatusCode, out.Results)
	}
}

// TestSearchPanicContainment: a panic in the match path answers 500,
// quarantines the fingerprint, and the server keeps serving — before
// containment it killed the whole process.
func TestSearchPanicContainment(t *testing.T) {
	s, _, base := startTestServer(t, Config{QuarantineTTL: time.Minute})
	s.panicOn = "poison query"

	resp, err := testClient.Get(base + "/search?q=poison+query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query answered %d, want 500", resp.StatusCode)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	// The fingerprint is quarantined: the repeat is fast-rejected 503
	// without reaching the match path again.
	resp, err = testClient.Get(base + "/search?q=poison+query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined query answered %d, want 503", resp.StatusCode)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Fatalf("quarantined repeat reached the match path: Panics = %d", got)
	}
	// Other queries still serve; the process survived.
	if res := search(t, base, "used books", ""); res.Matched == 0 {
		t.Fatal("server degraded after contained panic")
	}
	// A panic inside a batch is the same: 500, and the strike lands on the
	// query that panicked, not on its neighbours. The handler that read
	// panicOn last must be done with it before the test writes it.
	settled(t, s)
	s.panicOn = "second poison"
	if resp, _ := postBatch(t, base, batchRequest{Queries: []string{"used books", "second poison"}}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking batch answered %d, want 500", resp.StatusCode)
	}
	if code := searchStatus(t, base, "q=second+poison"); code != http.StatusServiceUnavailable {
		t.Fatalf("the batch's poison query answered %d afterwards, want 503", code)
	}
	if got := s.metrics.Panics.Load(); got != 2 {
		t.Fatalf("Panics = %d, want 2", got)
	}
	if res := search(t, base, "used books", ""); res.Matched == 0 {
		t.Fatal("the poison query's batch neighbour was quarantined with it")
	}
	// The limiter slot was released despite the panic: saturate-free.
	settled(t, s)
	if s.limiter.Waiting() != 0 {
		t.Fatalf("leaked admission state: waiting=%d", s.limiter.Waiting())
	}
}

// settled waits until no request is in flight, and fails if one stays in
// flight for seconds (a leaked count). A reply reaches the client before
// its handler's deferred bookkeeping runs (writeBody sends it in the
// handler), so just after a reply the count may still read 1. Observing 0
// also orders everything the handlers did before the test's next step.
func settled(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.metrics.InFlight.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("leaked admission state: %d requests still in flight after 5 s", s.metrics.InFlight.Load())
		}
	}
}

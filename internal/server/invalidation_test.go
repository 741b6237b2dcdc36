package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adindex"
	"adindex/internal/textnorm"
)

// TestCacheDifferential: over seeded random interleavings of writes and
// reads, a server with the reply cache and one without (CacheEntries: -1),
// each over its own index fed the same requests, answer identically
// outside cached, took_us and cost_spent. The queries come from a small
// fixed set so that they repeat across writes; a few are long enough for
// the MaxQueryWords cutoff, whose answers depend on document frequencies.
// Every vocabulary word has an anchor ad that is never deleted, so which
// queries are cut off does not change during a run (a complete answer
// cached before a query grew past the cutoff would be served in place of
// the lossy one a fresh computation gives: better, but not identical).
func TestCacheDifferential(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cacheDifferential(t, seed) })
	}
}

func cacheDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 24)
	var base []adindex.Ad
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
		base = append(base, adindex.NewAd(uint64(1000+i), vocab[i], adindex.Meta{BidMicros: 10}))
	}
	phrase := func(n int) string {
		words := make([]string, n)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(words, " ")
	}
	type poolAd struct {
		ID     uint64       `json:"id"`
		Phrase string       `json:"phrase"`
		Meta   adindex.Meta `json:"meta"`
	}
	pool := make([]poolAd, 60)
	for i := range pool {
		pool[i] = poolAd{uint64(i + 1), phrase(1 + rng.Intn(4)), adindex.Meta{BidMicros: int64(1+rng.Intn(5)) * 100, ClickRate: uint16(rng.Intn(1000))}}
		if rng.Intn(4) == 0 {
			pool[i].Meta.Exclusions = []string{vocab[rng.Intn(len(vocab))]}
		}
	}
	for _, a := range pool[:20] {
		base = append(base, adindex.NewAd(a.ID, a.Phrase, a.Meta))
	}
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = phrase(1 + rng.Intn(6))
		if i < 6 { // more distinct words than MaxQueryWords, all of them indexed
			perm := rng.Perm(len(vocab))[:14+rng.Intn(3)]
			var words []string
			for _, j := range perm {
				words = append(words, vocab[j])
			}
			queries[i] = strings.Join(words, " ")
		}
	}
	var sel *adindex.Selection
	if seed%2 == 1 {
		sel = &adindex.Selection{MaxResults: 5, RankByExpectedRevenue: true}
	}
	opts := adindex.Options{MaxDeltaAds: 6} // a fold every few writes
	cached := New(adindex.Build(base, opts), Config{Selection: sel})
	plain := New(adindex.Build(base, opts), Config{Selection: sel, CacheEntries: -1})

	both := func(step int, method, target, body string) {
		t.Helper()
		got := withoutVolatile(serve(t, cached, method, target, body))
		want := withoutVolatile(serve(t, plain, method, target, body))
		if got != want {
			t.Fatalf("step %d: %s %s %s\ncached server: %s\nplain server:  %s", step, method, target, body, got, want)
		}
	}
	for step := 0; step < 400; step++ {
		switch x := rng.Intn(100); {
		case x < 45:
			typ := []string{"broad", "broad", "broad", "broad", "exact", "phrase"}[rng.Intn(6)]
			both(step, "GET", searchTarget(queries[rng.Intn(len(queries))], typ), "")
		case x < 55:
			qs := make([]string, 3+rng.Intn(3))
			for i := range qs {
				qs[i] = queries[rng.Intn(len(queries))]
			}
			body, _ := json.Marshal(batchRequest{Queries: qs})
			both(step, "POST", "/search/batch", string(body))
		case x < 75:
			body, _ := json.Marshal(pool[rng.Intn(len(pool))])
			both(step, "POST", "/insert", string(body))
		case x < 93: // a pool ad: live, or already gone
			a := pool[rng.Intn(len(pool))]
			both(step, "POST", "/delete", fmt.Sprintf(`{"id":%d,"phrase":%q}`, a.ID, a.Phrase))
		case x < 96: // never existed
			both(step, "POST", "/delete", fmt.Sprintf(`{"id":%d,"phrase":"w00 w01"}`, 5000+step))
		default:
			// The two reports agree too, but what matters is the next reads.
			serve(t, cached, "POST", "/optimize", "")
			serve(t, plain, "POST", "/optimize", "")
		}
	}
	hits, _, invalidations := cached.cache.Stats()
	if hits == 0 || invalidations == 0 {
		t.Errorf("%d hits, %d invalidations: the run exercised nothing", hits, invalidations)
	}
}

// collidingWords finds, through the public API alone, two words that share
// a slot of the index's word version table: insert one-word ads until some
// earlier word's ChangedAt reports a later word's epoch.
func collidingWords(t *testing.T) (string, string) {
	t.Helper()
	ix := adindex.New(adindex.Options{})
	var words []string
	byEpoch := map[uint64]string{}
	for i := 0; i < 3000; i++ {
		w := fmt.Sprintf("k%04d", i)
		ix.Insert(adindex.NewAd(uint64(i+1), w, adindex.Meta{}))
		words = append(words, w)
		byEpoch[ix.Epoch()] = w
	}
	v := ix.View()
	for _, w := range words {
		if other := byEpoch[v.ChangedAt([]string{w})]; other != "" && other != w {
			return w, other
		}
	}
	t.Fatal("3000 words share no slot among 16384: the table is not what the test assumes")
	return "", ""
}

// TestCacheLinearizable runs writers and readers on overlapping word sets
// through the handler, under the race detector in `make race`. Every ad is
// written once (inserted, and half of them deleted again) and moves through
// states 0 not started, 1 inserting, 2 live, 3 deleting, 4 gone; a search
// reads the states before it starts and after it returns. An ad whose
// insert had returned before the search started and whose delete had not
// begun when it ended must be in the reply; an ad whose delete had returned
// before the start, or whose insert had not begun by the end, must not be.
// A reply served from an entry the write should have dropped breaks the
// first rule or the second. Two of the words share a version slot, so
// writes to one keep invalidating queries on the other: that may cost
// misses, never a wrong answer.
func TestCacheLinearizable(t *testing.T) {
	wa, wb := collidingWords(t)
	wordSets := [][]string{{wa}, {wa, "xx"}, {"xx", "yy"}, {wb, "yy"}, {"zz"}, {wa, wb}}
	queries := []string{
		wa + " xx yy", wb + " xx yy", "xx yy zz", wa + " " + wb, wb + " yy zz", "zz",
	}
	const writers, perWriter = 4, 48
	type written struct {
		id     uint64
		phrase string
		words  []string
		state  atomic.Int32
	}
	ads := make([]*written, writers*perWriter)
	for i := range ads {
		words := wordSets[i%len(wordSets)]
		ads[i] = &written{id: uint64(100 + i), phrase: strings.Join(words, " "), words: textnorm.WordSet(strings.Join(words, " "))}
	}
	// within[q] lists the ads whose words all occur in queries[q].
	within := make([][]*written, len(queries))
	for q, text := range queries {
		for _, a := range ads {
			if textnorm.IsSubset(a.words, textnorm.WordSet(text)) {
				within[q] = append(within[q], a)
			}
		}
	}
	ix := adindex.Build([]adindex.Ad{
		adindex.NewAd(1, wb+" yy", adindex.Meta{}), adindex.NewAd(2, "xx", adindex.Meta{}),
		adindex.NewAd(3, "yy zz", adindex.Meta{}), adindex.NewAd(4, wa, adindex.Meta{}),
	}, adindex.Options{MaxDeltaAds: 16}) // folds while the test runs
	s := New(ix, Config{})

	// search asks queries[q] and holds the reply to the two rules.
	search := func(who string, q int) {
		pre := make([]int32, len(within[q]))
		for i, a := range within[q] {
			pre[i] = a.state.Load()
		}
		var reply searchResponse
		if err := json.Unmarshal(serve(t, s, "GET", searchTarget(queries[q], "broad"), ""), &reply); err != nil {
			t.Errorf("%s: %q: %v", who, queries[q], err)
			return
		}
		present := map[uint64]bool{}
		for _, ad := range reply.Ads {
			present[ad.ID] = true
		}
		for i, a := range within[q] {
			post := a.state.Load()
			switch {
			case pre[i] == 2 && post == 2 && !present[a.id]:
				t.Errorf("%s: %q (cached=%v) lacks ad %d %q, inserted before the search began", who, queries[q], reply.Cached, a.id, a.phrase)
			case (pre[i] == 4 || post == 0) && present[a.id]:
				t.Errorf("%s: %q (cached=%v) holds ad %d %q in state %d -> %d", who, queries[q], reply.Cached, a.id, a.phrase, pre[i], post)
			}
		}
	}

	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer writing.Add(-1)
			who := fmt.Sprintf("writer %d", g)
			for i, a := range ads[g*perWriter : (g+1)*perWriter] {
				a.state.Store(1)
				serve(t, s, "POST", "/insert", fmt.Sprintf(`{"id":%d,"phrase":%q}`, a.id, a.phrase))
				a.state.Store(2)
				for q := range queries { // a search that starts after Insert returned
					search(who, q)
				}
				if i%2 == 0 {
					continue
				}
				a.state.Store(3)
				serve(t, s, "POST", "/delete", fmt.Sprintf(`{"id":%d,"phrase":%q}`, a.id, a.phrase))
				a.state.Store(4)
				search(who, g%len(queries))
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := fmt.Sprintf("reader %d", g)
			for i := 0; writing.Load() > 0; i++ {
				search(who, (i+g)%len(queries))
			}
		}(g)
	}
	wg.Wait()
	hits, _, invalidations := s.cache.Stats()
	if hits == 0 || invalidations == 0 {
		t.Errorf("%d hits, %d invalidations: the run exercised nothing", hits, invalidations)
	}

	// Quiet again. A write to wa alone cannot change a query without wa,
	// but it stamps the slot wb shares: the wb query is answered afresh,
	// with the same ads. A write to a word in a slot of its own costs the
	// wb query nothing.
	target := searchTarget(queries[4], "broad") // wb yy zz
	serve(t, s, "GET", target, "")
	before := serve(t, s, "GET", target, "")
	if !strings.Contains(string(before), `"cached":true`) {
		t.Fatalf("repeat of %q not cached: %s", queries[4], before)
	}
	serve(t, s, "POST", "/insert", fmt.Sprintf(`{"id":9001,"phrase":%q}`, wa))
	after := serve(t, s, "GET", target, "")
	if !strings.Contains(string(after), `"cached":false`) {
		t.Errorf("%q and %q share a slot, yet a write to one left the other's query cached", wa, wb)
	}
	if withoutVolatile(after) != withoutVolatile(before) {
		t.Errorf("the over-invalidated query changed its answer:\n%s\nwas\n%s", after, before)
	}
	serve(t, s, "POST", "/insert", `{"id":9002,"phrase":"elsewhere"}`)
	if again := serve(t, s, "GET", target, ""); !strings.Contains(string(again), `"cached":true`) {
		t.Errorf("a write to an unrelated word dropped %q: %s", queries[4], again)
	}
}

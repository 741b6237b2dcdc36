package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// TestCachePutDifferential: every reply a cached server gives, miss or
// hit, is byte for byte the reply a server without a cache encodes fresh
// on the same state, at each stage a stored reply's ads can change under
// it: the base as built, an overlay of inserts and deletes, an ID deleted
// and inserted again with other content, a fold, an Optimize install, and
// one /search/batch request that stores two misses — with and without a
// Config.Selection. Each query is asked three times per stage (a ghost, a
// store or refresh, a hit), and every stored reply that holds ads holds
// them as fragments: each put came with its spans.
func TestCachePutDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, sel := range []*adindex.Selection{nil, {MaxResults: 8, RankByExpectedRevenue: true}} {
			t.Run(fmt.Sprintf("seed=%d/selection=%v", seed, sel != nil), func(t *testing.T) { cachePutDifferential(t, seed, sel) })
		}
	}
}

func cachePutDifferential(t *testing.T, seed int64, sel *adindex.Selection) {
	corp := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	wl := workload.Generate(corp, workload.GenOptions{NumQueries: 40, MaxExtraWords: 2, Seed: seed + 100})
	var queries []string
	for i := range wl.Queries {
		queries = append(queries, strings.Join(wl.Queries[i].Words, " "))
	}
	for range 20 { // phrases, for exact and phrase match to find
		queries = append(queries, corp.Ads[rng.Intn(len(corp.Ads))].Phrase)
	}
	opts := adindex.Options{MaxDeltaAds: 32}
	cachedIx, plainIx := adindex.Build(corp.Ads, opts), adindex.Build(corp.Ads, opts)
	cached := New(cachedIx, Config{Selection: sel})
	plain := New(plainIx, Config{Selection: sel, CacheEntries: -1})

	// same holds one request's replies to each other: the cached server's
	// against the plain one's, the epoch of a batch aside (an Optimize
	// install on either moves it by its own count).
	same := func(stage, method, target, body string) (hit bool) {
		t.Helper()
		got := serve(t, cached, method, target, body)
		want := serve(t, plain, method, target, body)
		strip := func(reply []byte) string { return epochRE.ReplaceAllString(withoutVolatile(reply), `"epoch":E`) }
		if strip(got) != strip(want) {
			t.Fatalf("%s: %s %s %s\ncached server: %s\nplain server:  %s", stage, method, target, body, got, want)
		}
		return bytes.Contains(got, []byte(`"cached":true`))
	}
	ask := func(stage string) {
		t.Helper()
		hits := 0
		for _, q := range queries {
			for _, typ := range []string{"broad", "exact", "phrase"} {
				for range 3 {
					if same(stage, "GET", searchTarget(q, typ), "") {
						hits++
					}
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no hit", stage)
		}
		checkStoredAsFragments(t, cached.cache)
		checkSegments(t, cached.cache)
	}
	write := func(method, target, body string) {
		t.Helper()
		serve(t, cached, method, target, body)
		serve(t, plain, method, target, body)
	}
	insert := func(id uint64, phrase string, meta adindex.Meta) {
		t.Helper()
		b, err := json.Marshal(map[string]any{"id": id, "phrase": phrase, "meta": meta})
		if err != nil {
			t.Fatal(err)
		}
		write("POST", "/insert", string(b))
	}
	// inserts adds k ads under new IDs whose phrases are words of the
	// queries (so they change cached replies), and deletes k/3 base ads.
	inserts := func(k int) {
		for range k {
			words := strings.Fields(queries[rng.Intn(len(queries))])
			phrase := strings.Join(words[:1+rng.Intn(min(2, len(words)))], " ")
			insert(uint64(1_000_000+rng.Intn(1_000_000)), phrase, adindex.Meta{BidMicros: int64(1 + rng.Intn(900)), ClickRate: uint16(rng.Intn(100))})
		}
		for range k / 3 {
			a := corp.Ads[rng.Intn(len(corp.Ads))]
			write("POST", "/delete", fmt.Sprintf(`{"id":%d,"phrase":%q}`, a.ID, a.Phrase))
		}
	}

	ask("base")
	stores, refreshes := cached.cache.puts()
	if stores == 0 {
		t.Fatal("base: nothing stored")
	}

	inserts(12)
	ask("overlay pending")
	if _, after := cached.cache.puts(); after == refreshes {
		t.Fatal("overlay pending: no entry was refreshed")
	}

	// IDs the cached replies hold, deleted and inserted again with other
	// content: the entries that held them take a fragment of the new bytes.
	for range 6 {
		words := strings.Fields(queries[rng.Intn(len(queries))])
		for _, a := range corp.Ads {
			if strings.Contains(a.Phrase, words[0]) {
				write("POST", "/delete", fmt.Sprintf(`{"id":%d,"phrase":%q}`, a.ID, a.Phrase))
				insert(a.ID, a.Phrase, adindex.Meta{BidMicros: a.Meta.BidMicros + 7, ClickRate: 3, Exclusions: []string{`"quoted"`}})
				break
			}
		}
	}
	ask("IDs inserted again with other content")

	folds, _ := cachedIx.FoldStats()
	inserts(40)
	if after, _ := cachedIx.FoldStats(); after == folds {
		t.Fatal("no fold after 40 inserts past a 32-ad overlay")
	}
	ask("after a fold")

	inserts(6)
	remaps := cachedIx.Remaps()
	write("POST", "/optimize", "")
	if cachedIx.Remaps() == remaps {
		t.Fatal("/optimize with writes pending installed nothing")
	}
	ask("after an Optimize install")

	// One batch request that stores two misses: each put reads its own
	// reply's spans.
	a := queries[0] + " " + queries[len(queries)-1]
	b := queries[1] + " " + queries[len(queries)-2]
	batch := fmt.Sprintf(`{"queries":[%q,%q]}`, a, b)
	same("batch, first sightings", "POST", "/search/batch", batch)
	before, _ := cached.cache.puts()
	same("batch, second sightings", "POST", "/search/batch", batch)
	if after, _ := cached.cache.puts(); after != before+2 {
		t.Fatalf("one batch of two second sightings stored %d replies, want 2", after-before)
	}
	if !same("batch, hits", "POST", "/search/batch", batch) {
		t.Fatal("the batch's stored replies were not hit")
	}
	for _, q := range []string{a, b} {
		if !same("batch replies through /search", "GET", searchTarget(q, "broad"), "") {
			t.Fatalf("%q: stored by the batch, not hit by /search", q)
		}
	}
	checkStoredAsFragments(t, cached.cache)
	checkSegments(t, cached.cache)
}

// checkStoredAsFragments holds a server's stored replies to the one intern
// path: a reply that holds ads holds them as fragment references, and
// only "null" and "[]" are copies.
func checkStoredAsFragments(t *testing.T, c *Cache) {
	t.Helper()
	for _, s := range c.shards {
		s.mu.Lock()
		for _, el := range s.items {
			if ent := el.Value.(*cacheEntry); ent.body != nil && string(ent.body) != "null" && string(ent.body) != "[]" {
				t.Errorf("entry %q holds its ads as a copy: %.80s", ent.key, ent.body)
			}
		}
		s.mu.Unlock()
	}
}

// fragIDs are the ad IDs FuzzFragTable's replies draw from: the first
// eight share one home position of the fragment index's first table, the
// next eight another, so probes cross each other's positions and deletes
// shift them.
var fragIDs = func() []uint64 {
	x := fragIndex{shift: 64 - 6} // a 64-position table
	var ids []uint64
	for _, home := range []int{5, 6} {
		for id, n := uint64(1), 0; n < 8; id++ {
			if x.home(id) == home {
				ids = append(ids, id)
				n++
			}
		}
	}
	return ids
}()

// FuzzFragTable drives a 4-entry cache (one probation slot, three
// protected) with put, get and refresh sequences decoded from the input,
// over replies whose ads share colliding IDs and whose content for an ID
// changes with the epoch: puts intern, refreshes re-intern and release,
// demotions evict and release, and slots and index positions are reused.
// Every hit's bytes are the encoding of the reply put under its key at an
// epoch no older than the reader's, and after every operation the table's
// live count, bytes and reference counts are what the entries reference.
func FuzzFragTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x10, 0x10, 0x11, 0x11, 0x90, 0x12, 0x12, 0x13, 0x13, 0xa0, 0x14, 0x14, 0x10})
	f.Add([]byte("\x00\x00\x40\x40\x80\x80\xc0\xc0\x01\x01\x41\x41\x81\xc1\x02\x02\xff\xff\x03\x43"))
	f.Add([]byte("00CCC")) // an ID whose bytes changed: sharing by ID alone serves the old ones
	const marker uint64 = 1 << 40
	// replyOf is key k's reply at epoch e: a marker ad naming both, then
	// ads of fragIDs (none for some), the first four of which carry other
	// bytes at odd epochs.
	replyOf := func(k, e int) []adindex.Ad {
		if (k+e)%7 == 6 {
			return nil
		}
		list := []adindex.Ad{adindex.NewAd(marker+uint64(k*16+e), "marker", adindex.Meta{})}
		for j := 0; j < (k+e)%6; j++ {
			id := fragIDs[(k*5+j*3+e)%len(fragIDs)]
			phrase := fmt.Sprintf("ad %d", id)
			if id == fragIDs[0] || id == fragIDs[1] || id == fragIDs[8] || id == fragIDs[9] {
				phrase += fmt.Sprintf(" v%d", e%2)
			}
			list = append(list, adindex.NewAd(id, phrase, adindex.Meta{BidMicros: int64(id)}))
		}
		return list
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		c := NewCache(4, 1)
		for _, op := range ops {
			k, e := int(op&0x0f)%8, int(op>>4)%16
			if op&0x80 == 0 { // a get at epoch e/2, and a put of what it missed
				changedAt := uint64(e / 2)
				reply, ok := c.Get(fmt.Sprint("k", k), changedAt)
				if !ok {
					c.Put(fmt.Sprint("k", k), changedAt, replyOf(k, int(changedAt)))
					checkSegments(t, c)
					continue
				}
				var got []adindex.Ad
				if err := json.Unmarshal(reply.Body, &got); err != nil {
					t.Fatalf("k%d: body %s: %v", k, reply.Body, err)
				}
				if len(got) == 0 { // a null reply: some epoch since changedAt has one
					null := false
					for e := int(changedAt); e < 16; e++ {
						null = null || replyOf(k, e) == nil
					}
					if string(reply.Body) != "null" || !null {
						t.Fatalf("k%d at %d: hit %s, which no epoch since puts", k, changedAt, reply.Body)
					}
					checkSegments(t, c)
					continue
				}
				epoch := int(got[0].ID-marker) % 16
				if int(got[0].ID-marker)/16 != k {
					t.Fatalf("k%d: hit %s, another key's reply", k, reply.Body)
				}
				if want, _ := appendAdsJSON(nil, nil, replyOf(k, epoch)); epoch < int(changedAt) || !bytes.Equal(reply.Body, want) {
					t.Fatalf("k%d at %d: hit %s\nwant the reply of epoch %d: %s", k, changedAt, reply.Body, epoch, want)
				}
			} else { // a put at epoch e: a refresh when the key is present
				c.Put(fmt.Sprint("k", k), uint64(e), replyOf(k, e))
			}
			checkSegments(t, c)
		}
	})
}

// BenchmarkCacheRefresh times one refresh put: BenchmarkSearchHit's
// working set, every entry stored, and each timed op puts one entry's own
// reply (its body and spans as a miss encodes them) back into it, as the
// miss after a write that outdated the entry does. The replies of the
// stream's first 4 096 requests are encoded before the timer starts.
func BenchmarkCacheRefresh(b *testing.B) {
	corp := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1})
	s := New(adindex.Build(corp.Ads, adindex.Options{}), Config{})
	wl, queries := hotQueries(corp, 20_000, 2)
	w := &reusedWriter{h: http.Header{}}
	index := make(map[*workload.Query]int, len(queries))
	for i, q := range queries {
		req := httptest.NewRequest("GET", searchTarget(q, "broad"), nil)
		s.handleSearch(w, req)
		s.handleSearch(w, req)
		index[&wl.Queries[i]] = i
	}
	type put struct {
		key []byte
		fp  uint64
		Cached
	}
	view := s.local().View()
	var puts []put
	sc := new(searchScratch)
	for _, wq := range wl.Stream(4096, 3) {
		q := queries[index[wq]]
		sc.tokenize("broad", q)
		body, spans, res := view.AppendMatchJSON(nil, nil, adindex.Query{Text: q}, sc.words, nil)
		if res.Truncated {
			continue
		}
		puts = append(puts, put{bytes.Clone(sc.key), fingerprint(sc.key), Cached{Matched: len(spans), Body: body, Spans: spans}})
	}
	stores, refreshes := s.cache.puts()
	epoch := view.Epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &puts[i%len(puts)]
		cachePut(s.cache, p.key, p.fp, epoch, p.Cached)
	}
	b.StopTimer()
	if after, refreshed := s.cache.puts(); after != stores || refreshed-refreshes != uint64(b.N) {
		b.Fatalf("%d stores and %d refreshes in %d puts: the runs did not measure refreshes", after-stores, refreshed-refreshes, b.N)
	}
}

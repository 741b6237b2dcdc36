package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adindex"
	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/textnorm"
)

// TestSearchParamsMatchURLQuery holds the one-pass scanner to
// url.Values.Get on hand-picked edge cases and on random strings over the
// alphabet that matters to a query-string parser.
func TestSearchParamsMatchURLQuery(t *testing.T) {
	raws := []string{
		"", "q=", "q", "q=a", "q=cheap+used+books&type=exact&rewrite=on",
		"type=phrase&q=a%20b", "q=a&q=b", "q=&q=b", "%71=escaped+key", "q=%zz&q=ok",
		"q=a;b&type=exact", "q=a&x;y=1&type=broad", "&&q=a&&", "q=a=b", "=a&q=b",
		"Q=upper", "qq=a&typ=b", "q=%", "q=%4", "type=%65xact&q=x", "rewrite=on",
		"q=caf%C3%A9&type=", "q=a%26type%3Dexact", "q=+", "q=%00%0a",
	}
	rng := rand.New(rand.NewSource(18))
	const alphabet = "q&=;%+typerwi2 0aZ"
	for i := 0; i < 4000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		raws = append(raws, string(b))
	}
	for _, raw := range raws {
		want, _ := url.ParseQuery(raw) // Values.Get ignores the error, as URL.Query does
		q, typ, rewrite := searchParams(raw)
		if q != want.Get("q") || typ != want.Get("type") || rewrite != want.Get("rewrite") {
			t.Errorf("searchParams(%q) = %q, %q, %q; url.Values gives %q, %q, %q",
				raw, q, typ, rewrite, want.Get("q"), want.Get("type"), want.Get("rewrite"))
		}
	}
}

// searchResponse is the /search reply as a struct: the reference the
// append-form reply is held to byte for byte, and what the tests decode.
type searchResponse struct {
	Query   string       `json:"query"`
	Type    string       `json:"type"`
	Matched int          `json:"matched"`
	Cached  bool         `json:"cached"`
	Ads     []adindex.Ad `json:"ads"`
	TookUS  int64        `json:"took_us"`

	// Rewrite-mode fields: approximate broad match returns each ad with
	// how it was reached (exact / synonym / fuzzy+distance) instead of
	// bare ads, plus the per-query expansion stats.
	Matches []adindex.Match   `json:"matches,omitempty"`
	Rewrite *rewriteStatsJSON `json:"rewrite,omitempty"`

	// Remote-mode fields: the distributed deployment serves IDs (+ per-ID
	// metadata) rather than full ad records, and flags degradation. The
	// reply itself is built by appendRemoteReply; these fields are the
	// reference its golden test encodes.
	IDs          []uint64             `json:"ids,omitempty"`
	Meta         []multiserver.AdMeta `json:"meta,omitempty"`
	Degraded     bool                 `json:"degraded,omitempty"`
	FailedShards []int                `json:"failed_shards,omitempty"`

	// Overload-armor fields: a budget-truncated answer is a verified
	// ID-ordered subset of the full answer, flagged rather than silently
	// short.
	Truncated bool  `json:"truncated,omitempty"`
	CostSpent int64 `json:"cost_spent,omitempty"`
}

// batchResult is one element of a batch reply's results: the /search reply
// for the same query without its type and took_us.
type batchResult struct {
	Query   string            `json:"query"`
	Matched int               `json:"matched"`
	Cached  bool              `json:"cached"`
	Ads     []adindex.Ad      `json:"ads"`
	Matches []adindex.Match   `json:"matches,omitempty"` // rewrite mode only
	Rewrite *rewriteStatsJSON `json:"rewrite,omitempty"` // rewrite mode only

	Truncated bool  `json:"truncated,omitempty"`
	CostSpent int64 `json:"cost_spent,omitempty"`
}

type batchResponse struct {
	Epoch   uint64        `json:"epoch"`
	Results []batchResult `json:"results"`
	TookUS  int64         `json:"took_us"`
}

// hostileQueries are query texts whose echo in the reply exercises every
// escape class of the string encoder.
var hostileQueries = []string{
	`books <b>&"cheap"\`,
	"books \x00\x1f\t\n\x7f",
	"books \x80\xff\xc3",
	"books \u2028 \u2029 café",
}

// TestSearchEnvelopeGolden holds the spliced /search envelope to
// encoding/json over every combination of the optional fields the local
// path emits, null vs [] ads, and hostile query texts.
func TestSearchEnvelopeGolden(t *testing.T) {
	adLists := [][]adindex.Ad{
		nil, // no match
		{},  // selection emptied it
		{adindex.NewAd(7, "used <books>", adindex.Meta{BidMicros: 5, Exclusions: []string{"free & easy"}}),
			adindex.NewAd(9, "books", adindex.Meta{})},
	}
	queries := append([]string{"cheap used books"}, hostileQueries...)
	for _, q := range queries {
		for _, ads := range adLists {
			for flags := 0; flags < 16; flags++ {
				want := searchResponse{
					Query: q, Type: []string{"broad", "exact", "phrase"}[flags%3],
					Matched: len(ads) + flags, Cached: flags&1 != 0, Ads: ads, TookUS: int64(flags * 1234),
					Truncated: flags&2 != 0,
				}
				if flags&8 != 0 {
					want.CostSpent = int64(flags) * 1e9
				}
				got := appendSearchHead(nil, want.Query, want.Type, want.Matched, want.Cached)
				got = corpus.AppendAdsJSON(got, ads)
				got = strconv.AppendInt(append(got, `,"took_us":`...), want.TookUS, 10)
				got = append(appendFlags(got, want.Truncated, want.CostSpent), "}\n"...)
				wantBytes, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				// json.Encoder, which the reply used to go through, ends the
				// document with a newline.
				if wantBytes = append(wantBytes, '\n'); !bytes.Equal(got, wantBytes) {
					t.Fatalf("envelope = %s\nencoding/json gives %s", got, wantBytes)
				}
			}
		}
	}
}

var (
	tookRE   = regexp.MustCompile(`"took_us":(\d+)`)
	costRE   = regexp.MustCompile(`,"cost_spent":(\d+)`)
	cachedRE = regexp.MustCompile(`"cached":(true|false)`)
)

// tookOf extracts the reply's took_us, which a golden comparison has to
// take from the reply itself.
func tookOf(t *testing.T, reply []byte) int64 {
	t.Helper()
	m := tookRE.FindAllSubmatch(reply, -1)
	if len(m) == 0 {
		t.Fatalf("reply has no took_us: %s", reply)
	}
	us, err := strconv.ParseInt(string(m[len(m)-1][1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return us
}

// costOf extracts the reply's cost_spent (0 when absent): the index work
// this request did, which a hit does none of.
func costOf(reply []byte) int64 {
	m := costRE.FindSubmatch(reply)
	if m == nil {
		return 0
	}
	cost, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return cost
}

// withoutVolatile blanks the parts of a reply that legitimately differ
// between a miss and its repeat: the time taken, the cached flag, and the
// miss's own index cost.
func withoutVolatile(reply []byte) string {
	reply = tookRE.ReplaceAll(reply, []byte(`"took_us":T`))
	reply = costRE.ReplaceAll(reply, nil)
	return string(cachedRE.ReplaceAll(reply, []byte(`"cached":C`)))
}

// serve runs one request through the server's handler and returns the
// reply body; a non-200 or a search reply with a wrong Content-Length is an
// error and no body (it never calls Fatal: goroutines use it too).
func serve(t testing.TB, s *Server, method, target, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		return nil
	}
	// The spliced replies announce their length; the rest still stream.
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want && strings.HasPrefix(target, "/search") {
		t.Errorf("%s %s: Content-Length %q, body is %s bytes", method, target, got, want)
		return nil
	}
	return rec.Body.Bytes()
}

func searchTarget(q, typ string) string {
	return "/search?q=" + url.QueryEscape(q) + "&type=" + typ
}

// TestBatchEnvelopeGolden holds the spliced /search/batch reply to
// encoding/json, miss and hit, with hostile query texts, a query that
// matches and one that does not.
func TestBatchEnvelopeGolden(t *testing.T) {
	ix := adindex.Build(testCatalog(), adindex.Options{})
	s := New(ix, Config{})
	reqBody, err := json.Marshal(batchRequest{
		Queries: append([]string{"cheap used books", "nothing matches this"}, hostileQueries...)})
	if err != nil {
		t.Fatal(err)
	}
	// The queries the server echoes are the ones it decodes (the request
	// encoding has already replaced invalid UTF-8).
	var sent batchRequest
	if err := json.Unmarshal(reqBody, &sent); err != nil {
		t.Fatal(err)
	}
	queries := sent.Queries
	// A batch puts every reply it missed, so a word set it asks twice is
	// sighted twice by the first pass and stored; every other is stored
	// by the second pass, and the third hits throughout.
	sightings := map[string]int{}
	for _, q := range queries {
		sightings[strings.Join(textnorm.WordSet(q), " ")]++
	}
	for pass := 0; pass < 3; pass++ {
		got := serve(t, s, "POST", "/search/batch", string(reqBody))
		want := batchResponse{Epoch: ix.Epoch(), TookUS: tookOf(t, got)}
		for _, q := range queries {
			ads := ix.BroadMatch(q)
			cached := pass == 2 || pass == 1 && sightings[strings.Join(textnorm.WordSet(q), " ")] > 1
			want.Results = append(want.Results, batchResult{Query: q, Matched: len(ads), Cached: cached, Ads: ads})
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if wantBytes = append(wantBytes, '\n'); !bytes.Equal(got, wantBytes) {
			t.Fatalf("batch reply (pass %d) = %s\nencoding/json gives %s", pass, got, wantBytes)
		}
	}
}

// TestLongQueryCachedLikeAnyOther: a query of more than 12 indexed words
// answers every ad brute-force containment answers, unflagged, and is
// cached as any query is: its second sighting stores the reply, the repeat
// and a batch are hits, a write that shares no word with it leaves its
// entry (and a short query's beside it) alone, and a write of an ad the
// query matches drops it, for a batch as for a search.
func TestLongQueryCachedLikeAnyOther(t *testing.T) {
	var ads []adindex.Ad
	var words []string
	for i := 0; i < 16; i++ {
		w := string(rune('a' + i))
		words = append(words, w)
		ads = append(ads, adindex.NewAd(uint64(i+1), w, adindex.Meta{}))
	}
	s := New(adindex.Build(ads, adindex.Options{}), Config{})
	long := strings.Join(words, " ")
	target := searchTarget(long, "broad")
	var first, second, repeat searchResponse
	for i, out := range []*searchResponse{&first, &second, &repeat} {
		if err := json.Unmarshal(serve(t, s, "GET", target, ""), out); err != nil {
			t.Fatal(err)
		}
		if out.Cached != (i == 2) {
			t.Fatalf("request %d: cached = %v", i, out.Cached)
		}
	}
	want := bruteForce(ads, "broad", long)
	for i, r := range []searchResponse{first, repeat} {
		if !slices.Equal(idsOf(r.Ads), idsOf(want)) || r.Matched != len(want) || r.Truncated {
			t.Fatalf("ask %d of the 16-word query: %d matched, %d ads, truncated %v; brute force %d ads",
				i, r.Matched, len(r.Ads), r.Truncated, len(want))
		}
	}
	batchBody, _ := json.Marshal(batchRequest{Queries: []string{long}})
	var batch batchResponse
	if err := json.Unmarshal(serve(t, s, "POST", "/search/batch", string(batchBody)), &batch); err != nil {
		t.Fatal(err)
	}
	if r := batch.Results[0]; !r.Cached || r.Truncated || !slices.Equal(idsOf(r.Ads), idsOf(want)) {
		t.Errorf("batch result for the 16-word query: %+v; want the cached whole answer", r)
	}

	short := searchTarget("a b c", "broad")
	serve(t, s, "GET", short, "")
	serve(t, s, "GET", short, "") // the second sighting stores it
	serve(t, s, "POST", "/insert", `{"id":99,"phrase":"zebra crossing"}`)
	for _, q := range []string{target, short} {
		var after searchResponse
		if err := json.Unmarshal(serve(t, s, "GET", q, ""), &after); err != nil {
			t.Fatal(err)
		}
		if !after.Cached {
			t.Errorf("%s: the entry was dropped by a write that shares no word with the query", q)
		}
	}

	serve(t, s, "POST", "/insert", `{"id":100,"phrase":"a b"}`)
	want = bruteForce(append(ads, adindex.NewAd(100, "a b", adindex.Meta{})), "broad", long)
	for _, cached := range []bool{false, true} { // the miss refreshes the entry in place
		var fresh batchResponse // a reused one would keep the last reply's fields
		if err := json.Unmarshal(serve(t, s, "POST", "/search/batch", string(batchBody)), &fresh); err != nil {
			t.Fatal(err)
		}
		if r := fresh.Results[0]; r.Cached != cached || r.Truncated || !slices.Equal(idsOf(r.Ads), idsOf(want)) {
			t.Errorf("batch after a write of \"a b\", cached=%v wanted: %+v", cached, r)
		}
	}
}

// bruteForce is the oracle for the selection test: a scan of the live ads
// with the match definitions written out, no index.
func bruteForce(ads []adindex.Ad, typ, q string) []adindex.Ad {
	qWords, qTokens := textnorm.WordSet(q), textnorm.Tokenize(q)
	var out []adindex.Ad
	for _, ad := range ads {
		ok := false
		switch typ {
		case "broad":
			ok = textnorm.IsSubset(ad.Words, qWords)
		case "exact":
			ok = slices.Equal(textnorm.Tokenize(ad.Phrase), qTokens)
		case "phrase":
			ok = textnorm.ContainsContiguous(qTokens, textnorm.Tokenize(ad.Phrase))
		}
		if ok {
			out = append(out, ad)
		}
	}
	slices.SortFunc(out, func(a, b adindex.Ad) int { return int(a.ID) - int(b.ID) })
	return out
}

// TestSelectionThroughServer drives Config.Selection through /search (all
// three types) and /search/batch, across writes. The cache holds replies
// after selection, so for every case the miss, its cached repeat and
// SelectAds over a brute-force scan must agree byte for byte and matched
// must stay the pre-selection count. Between rounds come an insert, a
// delete, a delete that finds nothing and an Optimize: a query is answered
// afresh (cached:false, the new ad in it or the deleted one gone) exactly
// when it contains the written ad's words, and every other entry is served
// as it was, byte for byte. (A write stamps its rarest word, so a query
// holding that word but not the whole set would be dropped as well; the
// writes here are chosen so that none of the queries is one.)
func TestSelectionThroughServer(t *testing.T) {
	live := []adindex.Ad{
		adindex.NewAd(1, "used books", adindex.Meta{BidMicros: 100, ClickRate: 900}),
		adindex.NewAd(2, "cheap books", adindex.Meta{BidMicros: 200, ClickRate: 100}),
		adindex.NewAd(3, "books", adindex.Meta{BidMicros: 500, ClickRate: 10}),
		adindex.NewAd(4, "cheap used books", adindex.Meta{BidMicros: 400, ClickRate: 300}),
		adindex.NewAd(5, "books", adindex.Meta{BidMicros: 10, ClickRate: 9000}),                                     // under every floor
		adindex.NewAd(6, "used books", adindex.Meta{BidMicros: 900, ClickRate: 900, Exclusions: []string{"cheap"}}), // excluded when the query says cheap
		adindex.NewAd(7, "running shoes", adindex.Meta{BidMicros: 300, ClickRate: 50}),
	}
	selections := map[string]*adindex.Selection{
		"floor":         {MinBidMicros: 50},
		"cap":           {MaxResults: 2},
		"revenue":       {RankByExpectedRevenue: true},
		"all":           {MinBidMicros: 50, MaxResults: 3, RankByExpectedRevenue: true},
		"empties":       {MinBidMicros: 1 << 40},
		"none (no sel)": nil,
	}
	queries := []struct{ typ, q, reordered string }{
		{"broad", "cheap used books", "books used cheap"},
		{"broad", "used books today", "today books used"},
		{"broad", "nothing here", "here nothing"},
		{"exact", "used books", ""},
		{"phrase", "buy cheap used books now", ""},
	}
	batch := []string{"cheap used books", "books used cheap", "used books today", "books"}
	for name, sel := range selections {
		t.Run(name, func(t *testing.T) {
			ads := slices.Clone(live)
			ix := adindex.Build(ads, adindex.Options{})
			s := New(ix, Config{Selection: sel})
			extra := adindex.NewAd(8, "books", adindex.Meta{BidMicros: 700, ClickRate: 700})

			// want is the reply SelectAds over the brute-force scan gives.
			want := func(q, typ string, got []byte, cached bool) string {
				matches := bruteForce(ads, typ, q)
				selected := matches
				if sel != nil {
					selected = adindex.SelectAds(q, matches, *sel)
				}
				b, err := json.Marshal(searchResponse{Query: q, Type: typ, Matched: len(matches),
					Cached: cached, Ads: selected, TookUS: tookOf(t, got), CostSpent: costOf(got)})
				if err != nil {
					t.Fatal(err)
				}
				return string(b) + "\n"
			}
			// lastHit is each query's reply as the previous round left it in
			// the cache: what an entry no write touched must still say.
			lastHit := map[string]string{}
			// round asks everything twice. written is the word set of the
			// write since the last round (nil: none that changed an answer;
			// the first round finds an empty cache whatever it is).
			round := func(label string, written []string) {
				first := len(lastHit) == 0
				dropped := func(q string) bool {
					return first || written != nil && textnorm.IsSubset(written, textnorm.WordSet(q))
				}
				for _, c := range queries {
					fresh := dropped(c.q)
					if first {
						// A first sighting stores nothing: the miss below
						// is the second, which stores the reply.
						serve(t, s, "GET", searchTarget(c.q, c.typ), "")
					}
					miss := serve(t, s, "GET", searchTarget(c.q, c.typ), "")
					if w := want(c.q, c.typ, miss, !fresh); string(miss) != w {
						t.Errorf("%s: %s %q first = %s\nwant %s", label, c.typ, c.q, miss, w)
					}
					if prev := lastHit[c.typ+c.q]; !fresh && withoutVolatile(miss) != prev {
						t.Errorf("%s: %s %q: the surviving entry changed:\n%s\nwas\n%s", label, c.typ, c.q, withoutVolatile(miss), prev)
					}
					hit := serve(t, s, "GET", searchTarget(c.q, c.typ), "")
					if w := want(c.q, c.typ, hit, true); string(hit) != w {
						t.Errorf("%s: %s %q hit = %s\nwant %s", label, c.typ, c.q, hit, w)
					}
					if costOf(hit) != 0 {
						t.Errorf("%s: %s %q: a hit reports index cost %d", label, c.typ, c.q, costOf(hit))
					}
					if withoutVolatile(miss) != withoutVolatile(hit) {
						t.Errorf("%s: %s %q: hit differs from miss beyond cached/took_us", label, c.typ, c.q)
					}
					lastHit[c.typ+c.q] = withoutVolatile(hit)
					if c.reordered == "" {
						continue
					}
					// Another surface ordering of the same word set is the same
					// entry: served from the cache, same ads, its own echo.
					other := serve(t, s, "GET", searchTarget(c.reordered, c.typ), "")
					if w := want(c.reordered, c.typ, other, true); string(other) != w {
						t.Errorf("%s: reordering %q = %s\nwant %s", label, c.reordered, other, w)
					}
				}
				// The batch endpoint shares the entries /search just stored
				// (every broad query above is a hit) and stores what it
				// misses: "books" alone, where the write reached it (its
				// first sighting, in the first round, is a /search).
				if first {
					serve(t, s, "GET", searchTarget("books", "broad"), "")
				}
				reqBody, _ := json.Marshal(batchRequest{Queries: batch})
				for pass, wantCached := range [][]bool{{true, true, true, !dropped("books")}, {true, true, true, true}} {
					got := serve(t, s, "POST", "/search/batch", string(reqBody))
					wantResp := batchResponse{Epoch: ix.Epoch(), TookUS: tookOf(t, got)}
					for i, q := range batch {
						matches := bruteForce(ads, "broad", q)
						selected := matches
						if sel != nil {
							selected = adindex.SelectAds(q, matches, *sel)
						}
						wantResp.Results = append(wantResp.Results, batchResult{Query: q, Matched: len(matches),
							Cached: wantCached[i], Ads: selected})
					}
					b, _ := json.Marshal(wantResp)
					if string(got) != string(b)+"\n" {
						t.Errorf("%s: batch pass %d = %s\nwant %s", label, pass, got, b)
					}
				}
			}
			invalidations := func() uint64 {
				_, _, inv := s.cache.Stats()
				return inv
			}

			round("initial", nil)
			ix.Insert(extra)
			ads = append(ads, extra)
			round("after insert", extra.Words)
			if !ix.Delete(4, "cheap used books") {
				t.Fatal("delete of ad 4 found nothing")
			}
			ads = slices.DeleteFunc(ads, func(a adindex.Ad) bool { return a.ID == 4 })
			round("after delete", textnorm.WordSet("cheap used books"))

			// Neither of these changes an answer, and neither costs an entry,
			// though both advance the epoch.
			before, epoch := invalidations(), ix.Epoch()
			if ix.Delete(4, "cheap used books") {
				t.Fatal("ad 4 deleted twice")
			}
			round("after not-found delete", nil)
			if body := serve(t, s, "POST", "/optimize", ""); body == nil {
				t.Fatal("optimize failed")
			}
			round("after optimize", nil)
			if ix.Epoch() < epoch+2 {
				t.Errorf("epoch %d -> %d: the not-found delete and Optimize should both advance it", epoch, ix.Epoch())
			}
			if got := invalidations(); got != before {
				t.Errorf("a not-found delete and an Optimize invalidated %d entries", got-before)
			}
		})
	}
}

// TestConcurrentHitsDoNotAlias: many goroutines answer from one cache
// entry at once, each through its own surface ordering of the query. Every
// reply must be exactly the miss's reply with the requester's own echo —
// a response buffer shared between two requests, or a body appended to in
// place, would mix them (and trip the race detector).
func TestConcurrentHitsDoNotAlias(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 1801})
	ix := adindex.Build(c.Ads, adindex.Options{})
	s := New(ix, Config{})
	words := textnorm.WordSet(c.Ads[0].Phrase + " " + c.Ads[1].Phrase + " " + c.Ads[2].Phrase)
	base := strings.Join(words, " ")
	miss := withoutVolatile(serve(t, s, "GET", searchTarget(base, "broad"), ""))
	if !strings.Contains(miss, `"ID":`) {
		t.Fatalf("query %q matched nothing: the test exercises nothing", base)
	}
	serve(t, s, "GET", searchTarget(base, "broad"), "") // the second sighting stores it

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				perm := slices.Clone(words)
				rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				q := strings.Join(perm, " ") + strings.Repeat(" ", g) // same set, distinct echo
				got := withoutVolatile(serve(t, s, "GET", searchTarget(q, "broad"), ""))
				want := strings.Replace(miss, fmt.Sprintf(`"query":%q`, base), fmt.Sprintf(`"query":%q`, q), 1)
				if got != want {
					t.Errorf("goroutine %d: reply to %q differs from the entry's miss:\n%s\nwant\n%s", g, q, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, _, _ := s.cache.Stats(); hits != 8*200 {
		t.Errorf("cache hits = %d, want %d: the orderings did not share the entry", hits, 8*200)
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and drops the
// body, so a handler's own allocations are what AllocsPerRun sees.
type reusedWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *reusedWriter) Header() http.Header         { return w.h }
func (w *reusedWriter) WriteHeader(code int)        { w.code = code }
func (w *reusedWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestSearchHitAllocs pins what a cached reply costs: the unescaped query
// text, the Content-Length value and its header slice, and nothing that
// grows with the reply (23 allocations when the hit re-encoded its ads).
func TestSearchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 1801})
	s := New(adindex.Build(c.Ads, adindex.Options{}), Config{})
	req := httptest.NewRequest("GET", searchTarget(c.Ads[0].Phrase+" "+c.Ads[1].Phrase, "broad"), nil)
	w := &reusedWriter{h: http.Header{}}
	s.handleSearch(w, req) // the miss that stores the entry
	if w.code != 0 || w.n == 0 {
		t.Fatalf("warm-up request: status %d, %d bytes", w.code, w.n)
	}
	allocs := testing.AllocsPerRun(500, func() { s.handleSearch(w, req) })
	if hits, _, _ := s.cache.Stats(); hits < 500 {
		t.Fatalf("only %d cache hits: the runs did not measure the hit path", hits)
	}
	if allocs > 6 {
		t.Errorf("a cached /search reply costs %.1f allocations, want <= 6", allocs)
	}
	t.Logf("%.1f allocations per cached reply", allocs)
}

// TestSearchMissAllocs pins what a broad query's first sighting costs: the
// unescaped query text, the sampler's copy of its word-set key, and the
// Content-Length value and its header slice. Its ghost is a fingerprint in
// the cache's fixed ring, and its reply is encoded from the index's
// columns, so nothing grows with the reply (8 allocations when the ghost
// was an entry and the reply a copy-out of Ads).
func TestSearchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 1801})
	s := New(adindex.Build(c.Ads, adindex.Options{}), Config{})
	const runs = 500
	var reqs []*http.Request
	seen := map[string]bool{}
	for i := 0; len(reqs) < runs+50; i += 2 {
		q := c.Ads[i].Phrase + " " + c.Ads[i+1].Phrase
		if key := textnorm.SetKey(textnorm.WordSet(q)); !seen[key] {
			seen[key] = true
			reqs = append(reqs, httptest.NewRequest("GET", searchTarget(q, "broad"), nil))
		}
	}
	w := &reusedWriter{h: http.Header{}}
	for _, req := range reqs[runs:] { // warms the pools
		s.handleSearch(w, req)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs-1, func() { s.handleSearch(w, reqs[next]); next++ })
	if hits, misses, _ := s.cache.Stats(); hits != 0 || misses != runs+50 || w.code != 0 {
		t.Fatalf("%d hits, %d misses, status %d: the runs did not measure first sightings", hits, misses, w.code)
	}
	if allocs > 4 {
		t.Errorf("a first sighting costs %.1f allocations, want <= 4", allocs)
	}
	t.Logf("%.1f allocations per first sighting", allocs)
}

// TestSearchScratchPoolBounds: a scratch goes back to the pool keeping its
// buffers only up to their bounds. One broad query matching 20 000 ads
// used to leave its 2.4 MB copy-out slice pinned by the pool.
func TestSearchScratchPoolBounds(t *testing.T) {
	big := &searchScratch{ads: make([]adindex.Ad, 20_000), buf: make([]byte, 0, 2*maxPooledBuf), spans: make([]adindex.AdSpan, 20_000)}
	putSearchScratch(big)
	if big.ads != nil || big.buf != nil || big.spans != nil {
		t.Errorf("a scratch past its bounds was pooled with cap(ads) %d, cap(buf) %d, cap(spans) %d; want all dropped", cap(big.ads), cap(big.buf), cap(big.spans))
	}
	small := &searchScratch{ads: make([]adindex.Ad, 10, maxPooledAds), buf: make([]byte, 0, maxPooledBuf), spans: make([]adindex.AdSpan, 0, maxPooledAds)}
	putSearchScratch(small)
	if len(small.ads) != 0 || cap(small.ads) != maxPooledAds || cap(small.buf) != maxPooledBuf || cap(small.spans) != maxPooledAds {
		t.Errorf("a scratch within its bounds was pooled with len(ads) %d, cap(ads) %d, cap(buf) %d, cap(spans) %d; want its buffers kept, ads emptied",
			len(small.ads), cap(small.ads), cap(small.buf), cap(small.spans))
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// refBroadMatch is the brute-force oracle: scan every ad and test the
// subset condition directly.
func refBroadMatch(ads []corpus.Ad, queryWords []string) []uint64 {
	q := textnorm.CanonicalSet(queryWords)
	var ids []uint64
	for i := range ads {
		if textnorm.IsSubset(ads[i].Words, q) {
			ids = append(ids, ads[i].ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func matchIDs(ads []*corpus.Ad) []uint64 {
	ids := make([]uint64, 0, len(ads))
	for _, a := range ads {
		ids = append(ids, a.ID)
	}
	return ids
}

func mustAds(phrases ...string) []corpus.Ad {
	ads := make([]corpus.Ad, len(phrases))
	for i, p := range phrases {
		ads[i] = corpus.NewAd(uint64(i+1), p, corpus.Meta{BidMicros: int64(i) * 100})
	}
	return ads
}

func TestBroadMatchPaperExample(t *testing.T) {
	// The introduction's example: bid "used books" matches query "cheap
	// used books" but not "books" or "comic books".
	ads := mustAds("used books")
	ix := New(ads, Options{})
	if got := matchIDs(ix.BroadMatchText("cheap used books", nil)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("'cheap used books' = %v, want [1]", got)
	}
	if got := ix.BroadMatchText("books", nil); len(got) != 0 {
		t.Errorf("'books' matched %v, want none", matchIDs(got))
	}
	if got := ix.BroadMatchText("comic books", nil); len(got) != 0 {
		t.Errorf("'comic books' matched %v, want none", matchIDs(got))
	}
}

func TestBroadMatchFigure4Corpus(t *testing.T) {
	// The running example of Figures 4/5: cheap books, cheap used books,
	// used cars...
	ads := mustAds("cheap books", "used cars", "cheap used books", "cheap books")
	ix := New(ads, Options{})
	cases := []struct {
		query string
		want  []uint64
	}{
		{"cheap books", []uint64{1, 4}},
		{"cheap used books", []uint64{1, 3, 4}},
		{"used cars", []uint64{2}},
		{"cheap used cars", []uint64{2}},
		{"books", nil},
		{"expensive new houses", nil},
		{"cheap used books cars", []uint64{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := matchIDs(ix.BroadMatchText(c.query, nil))
		want := c.want
		if want == nil {
			want = []uint64{}
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BroadMatch(%q) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestBroadMatchDuplicateWords(t *testing.T) {
	// Section III-B: "Talk Talk" must not match a bid of just "Talk", and
	// vice versa.
	ads := mustAds("talk", "talk talk")
	ix := New(ads, Options{})
	if got := matchIDs(ix.BroadMatchText("talk", nil)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("'talk' = %v, want [1]", got)
	}
	got := matchIDs(ix.BroadMatchText("talk talk", nil))
	if !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("'talk talk' = %v, want [2] only (bid 'talk' requires single occurrence)", got)
	}
	if got := matchIDs(ix.BroadMatchText("talk talk band", nil)); !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("'talk talk band' = %v, want [2]", got)
	}
}

func TestBroadMatchEmptyAndUnknown(t *testing.T) {
	ix := New(mustAds("a b"), Options{})
	if got := ix.BroadMatchText("", nil); got != nil {
		t.Errorf("empty query matched %v", matchIDs(got))
	}
	if got := ix.BroadMatchText("zz yy xx", nil); len(got) != 0 {
		t.Errorf("unknown words matched %v", matchIDs(got))
	}
	empty := New(nil, Options{})
	if got := empty.BroadMatchText("anything", nil); len(got) != 0 {
		t.Errorf("empty index matched %v", matchIDs(got))
	}
}

func TestBroadMatchAgainstReference(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 17})
	ix := New(c.Ads, Options{})
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vocab := c.Vocabulary()
	for trial := 0; trial < 300; trial++ {
		// Mix corpus-derived and random queries.
		var qw []string
		if trial%2 == 0 {
			ad := &c.Ads[rng.Intn(len(c.Ads))]
			qw = append(qw, ad.Words...)
			for i := rng.Intn(3); i > 0; i-- {
				qw = append(qw, vocab[rng.Intn(len(vocab))])
			}
		} else {
			for i := 1 + rng.Intn(5); i > 0; i-- {
				qw = append(qw, vocab[rng.Intn(len(vocab))])
			}
		}
		q := textnorm.CanonicalSet(qw)
		got := matchIDs(ix.BroadMatch(q, nil))
		want := refBroadMatch(c.Ads, q)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d query %v: got %v want %v", trial, q, got, want)
		}
	}
}

func TestLongPhraseRemapping(t *testing.T) {
	// A 12-word phrase must be stored at a locator of <= MaxWords words
	// and still be retrievable.
	long := "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"
	ads := mustAds(long, "alpha bravo")
	ix := New(ads, Options{MaxWords: 5, MaxQueryWords: 16})
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, loc := range ix.Mapping() {
		if len(loc) > 5 {
			t.Fatalf("locator %v exceeds MaxWords", loc)
		}
	}
	got := matchIDs(ix.BroadMatchText(long+" extra words here", nil))
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("long-phrase query = %v, want [1 2]", got)
	}
	if got := ix.BroadMatchText("alpha bravo charlie", nil); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("short query should match only the short bid, got %v", matchIDs(got))
	}
}

func TestQueryCutoffDropsOnlyExtremeQueries(t *testing.T) {
	ads := mustAds("a b", "c d")
	ix := New(ads, Options{MaxWords: 3, MaxQueryWords: 4})
	// 10 indexed? words — only a,b,c,d are indexed; others dropped free.
	got := matchIDs(ix.BroadMatchText("a b c d x y z w v u", nil))
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("vocab filtering should keep all matches, got %v", got)
	}
}

func TestNewWithMappingEquivalence(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1200, Seed: 5})
	base := New(c.Ads, Options{})

	// Build a deliberately aggressive mapping: every set whose first word
	// is shared re-maps to the single-word locator of its first word.
	mapping := make(map[string][]string)
	for i := range c.Ads {
		words := c.Ads[i].Words
		mapping[setKey(words)] = words[:1]
	}
	remapped, err := NewWithMapping(c.Ads, mapping, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := remapped.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if remapped.NumNodes() >= base.NumNodes() {
		t.Errorf("aggressive remap should shrink node count: %d vs %d",
			remapped.NumNodes(), base.NumNodes())
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		ad := &c.Ads[rng.Intn(len(c.Ads))]
		q := textnorm.CanonicalSet(append(append([]string{}, ad.Words...), "noiseword"))
		a := matchIDs(base.BroadMatch(q, nil))
		b := matchIDs(remapped.BroadMatch(q, nil))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("remapping changed results for %v: %v vs %v", q, a, b)
		}
	}
}

func TestNewWithMappingValidation(t *testing.T) {
	ads := mustAds("a b c")
	if _, err := NewWithMapping(ads, map[string][]string{
		setKey([]string{"a", "b", "c"}): {"z"},
	}, Options{}); err == nil {
		t.Error("non-subset locator should be rejected")
	}
	if _, err := NewWithMapping(ads, map[string][]string{
		setKey([]string{"a", "b", "c"}): {},
	}, Options{}); err == nil {
		t.Error("empty locator should be rejected")
	}
	if _, err := NewWithMapping(ads, map[string][]string{
		setKey([]string{"a", "b", "c"}): {"a", "b", "c"},
	}, Options{MaxWords: 2}); err == nil {
		t.Error("over-long locator should be rejected")
	}
	// Mapping for an unrelated set is simply unused.
	if _, err := NewWithMapping(ads, map[string][]string{
		"unrelated": {"x"},
	}, Options{}); err != nil {
		t.Errorf("unused mapping entry should be fine: %v", err)
	}
}

func TestInsertDelete(t *testing.T) {
	ix := New(nil, Options{})
	ix.Insert(corpus.NewAd(1, "cheap books", corpus.Meta{}))
	ix.Insert(corpus.NewAd(2, "cheap used books", corpus.Meta{}))
	ix.Insert(corpus.NewAd(3, "cheap books", corpus.Meta{}))
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.NumAds() != 3 {
		t.Fatalf("NumAds = %d", ix.NumAds())
	}
	got := matchIDs(ix.BroadMatchText("cheap used books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
	if !ix.Delete(2, "cheap used books") {
		t.Fatal("Delete(2) failed")
	}
	if ix.Delete(2, "cheap used books") {
		t.Fatal("double delete should fail")
	}
	if ix.Delete(99, "cheap books") {
		t.Fatal("deleting unknown id should fail")
	}
	got = matchIDs(ix.BroadMatchText("cheap used books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("after delete got %v", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ix.Delete(1, "cheap books")
	ix.Delete(3, "cheap books")
	if ix.NumAds() != 0 || ix.NumNodes() != 0 {
		t.Fatalf("index not empty: ads=%d nodes=%d", ix.NumAds(), ix.NumNodes())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of inserts and deletes keeps the index
// equivalent to a reference multiset of ads.
func TestInsertDeleteQuick(t *testing.T) {
	phrases := []string{"a", "b", "a b", "b c", "a b c", "c d e", "a a", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New(nil, Options{MaxWords: 2})
		live := make(map[uint64]string)
		nextID := uint64(1)
		for step := 0; step < 60; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				p := phrases[rng.Intn(len(phrases))]
				ix.Insert(corpus.NewAd(nextID, p, corpus.Meta{}))
				live[nextID] = p
				nextID++
			} else {
				for id, p := range live {
					if !ix.Delete(id, p) {
						return false
					}
					delete(live, id)
					break
				}
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			return false
		}
		// Compare against reference on a few queries.
		var ads []corpus.Ad
		for id, p := range live {
			ads = append(ads, corpus.NewAd(id, p, corpus.Meta{}))
		}
		queries := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}, {"c", "d", "e"}, {"a_a"}, {"d", "e"}}
		for _, q := range queries {
			got := matchIDs(ix.BroadMatch(q, nil))
			want := refBroadMatch(ads, q)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// ExactMatch and PhraseMatch are the raw-text forms of AppendExactMatch
// and AppendPhraseMatch the tests of this package call.
func (ix *Index) ExactMatch(query string, counters *costmodel.Counters) []*corpus.Ad {
	tokens := textnorm.FoldDuplicates(textnorm.Tokenize(query))
	return ix.AppendExactMatch(nil, tokens, textnorm.CanonicalSet(tokens), counters)
}

func (ix *Index) PhraseMatch(query string, counters *costmodel.Counters) []*corpus.Ad {
	return ix.AppendPhraseMatch(nil, textnorm.Tokenize(query), textnorm.WordSet(query), counters, nil, nil)
}

func TestExactMatch(t *testing.T) {
	ads := mustAds("cheap books", "books cheap", "cheap used books", "cheap books")
	ix := New(ads, Options{})
	got := matchIDs(ix.ExactMatch("cheap books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Errorf("ExactMatch('cheap books') = %v, want [1 4]", got)
	}
	got = matchIDs(ix.ExactMatch("books cheap", nil))
	if !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("ExactMatch('books cheap') = %v, want [2]", got)
	}
	if got := ix.ExactMatch("cheap", nil); len(got) != 0 {
		t.Errorf("ExactMatch('cheap') = %v, want none", matchIDs(got))
	}
	if got := ix.ExactMatch("", nil); got != nil {
		t.Errorf("ExactMatch('') = %v", matchIDs(got))
	}
	if got := ix.ExactMatch("CHEAP Books", nil); !reflect.DeepEqual(matchIDs(got), []uint64{1, 4}) {
		t.Errorf("ExactMatch should normalize case, got %v", matchIDs(got))
	}
}

func TestExactMatchAfterRemap(t *testing.T) {
	// Exact match must find ads even when re-mapped to subset locators.
	ads := mustAds("alpha beta gamma delta epsilon zeta")
	ix := New(ads, Options{MaxWords: 3})
	got := matchIDs(ix.ExactMatch("alpha beta gamma delta epsilon zeta", nil))
	if !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("ExactMatch after remap = %v, want [1]", got)
	}
}

func TestPhraseMatch(t *testing.T) {
	ads := mustAds("used books", "books used", "cheap books")
	ix := New(ads, Options{})
	got := matchIDs(ix.PhraseMatch("buy used books online", nil))
	if !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("PhraseMatch = %v, want [1] (order must be respected)", got)
	}
	got = matchIDs(ix.PhraseMatch("books used", nil))
	if !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("PhraseMatch('books used') = %v, want [2]", got)
	}
	if got := ix.PhraseMatch("used cheap books", nil); !reflect.DeepEqual(matchIDs(got), []uint64{3}) {
		t.Errorf("'used cheap books' should phrase-match only 'cheap books', got %v", matchIDs(got))
	}
	if got := ix.PhraseMatch("", nil); got != nil {
		t.Errorf("PhraseMatch('') = %v", matchIDs(got))
	}
}

func TestCountersAccounting(t *testing.T) {
	ads := mustAds("a b", "a c", "b c")
	ix := New(ads, Options{MemHash: 16})
	var c costmodel.Counters
	ix.BroadMatch([]string{"a", "b", "c"}, &c)
	// 3 words, MaxWords default 10 -> 2^3-1 = 7 subsets probed.
	if c.HashProbes != 7 {
		t.Errorf("HashProbes = %d, want 7", c.HashProbes)
	}
	if c.Queries != 1 {
		t.Errorf("Queries = %d", c.Queries)
	}
	if c.Matches != 3 {
		t.Errorf("Matches = %d, want 3", c.Matches)
	}
	if c.NodesVisited != 3 {
		t.Errorf("NodesVisited = %d, want 3", c.NodesVisited)
	}
	if c.BytesScanned <= 7*16 {
		t.Errorf("BytesScanned = %d, expected record bytes on top of probe bytes", c.BytesScanned)
	}
	// Nil counters must not panic.
	ix.BroadMatch([]string{"a"}, nil)
}

func TestLookupsForQueryLength(t *testing.T) {
	ix := New(nil, Options{MaxWords: 10, MaxQueryWords: 12})
	if got := ix.LookupsForQueryLength(3); got != 7 {
		t.Errorf("n=3: %d, want 7", got)
	}
	if got := ix.LookupsForQueryLength(10); got != 1023 {
		t.Errorf("n=10: %d, want 1023", got)
	}
	// n=12, k=10: 2^12-1 - C(12,11) - C(12,12) = 4095-12-1 = 4082.
	if got := ix.LookupsForQueryLength(12); got != 4082 {
		t.Errorf("n=12: %d, want 4082", got)
	}
	// Longer queries are cut to MaxQueryWords.
	if got := ix.LookupsForQueryLength(40); got != 4082 {
		t.Errorf("n=40: %d, want 4082", got)
	}
	ix2 := New(nil, Options{MaxWords: 2, MaxQueryWords: 5})
	if got := ix2.LookupsForQueryLength(4); got != 4+6 {
		t.Errorf("n=4,k=2: %d, want 10", got)
	}
}

func TestStats(t *testing.T) {
	ads := mustAds("a b", "a b", "c")
	ix := New(ads, Options{})
	s := ix.Stats()
	if s.NumAds != 3 || s.NumNodes != 2 || s.DistinctSets != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxNodeAds != 2 {
		t.Errorf("MaxNodeAds = %d, want 2", s.MaxNodeAds)
	}
	if s.NodeBytes <= 0 || s.AvgNodeAds != 1.5 || s.AvgNodeBytes <= 0 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestAdsRoundTrip(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 500, Seed: 21})
	ix := New(c.Ads, Options{})
	got := ix.Ads()
	if len(got) != len(c.Ads) {
		t.Fatalf("Ads() returned %d, want %d", len(got), len(c.Ads))
	}
	for i := range got {
		if got[i].ID != c.Ads[i].ID || got[i].Phrase != c.Ads[i].Phrase {
			t.Fatalf("ad %d mismatch: %+v vs %+v", i, got[i], c.Ads[i])
		}
	}
}

func TestWordHashProperties(t *testing.T) {
	// Incremental hashing must agree with whole-set hashing.
	sets := [][]string{{"a"}, {"a", "b"}, {"cheap", "used", "books"}, {"x", "y", "z", "w"}}
	for _, s := range sets {
		h := uint64(fnvOffset64)
		for i, w := range s {
			h = hashExtend(h, i == 0, w)
		}
		if h != WordHash(s) {
			t.Errorf("incremental hash of %v = %x, want %x", s, h, WordHash(s))
		}
	}
	// Concatenation ambiguity must not collide thanks to the separator.
	if WordHash([]string{"ab", "c"}) == WordHash([]string{"a", "bc"}) {
		t.Error("separator failed to disambiguate")
	}
	if WordHash([]string{"a", "b"}) == WordHash([]string{"a"}) {
		t.Error("prefix sets collide")
	}
}

func TestNodeOrderInvariant(t *testing.T) {
	n := &node{}
	ads := mustAds("c c c", "a", "b b", "a b c d", "z")
	for _, a := range ads {
		n.insert(a)
	}
	if !n.checkOrdered() {
		t.Fatalf("node out of order: %+v", n.records)
	}
	lens := make([]int, len(n.records))
	for i := range n.records {
		lens[i] = len(n.records[i].Words)
	}
	if !sort.IntsAreSorted(lens) {
		t.Fatalf("word counts not ascending: %v", lens)
	}
}

// Property: re-mapping to ANY valid locator (random subset) never changes
// broad-match results. This is the paper's central correctness claim for
// re-mapping (Section IV-B).
func TestRemappingInvarianceQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 31})
	base := New(c.Ads, Options{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mapping := make(map[string][]string)
		for i := range c.Ads {
			words := c.Ads[i].Words
			if rng.Intn(2) == 0 {
				continue // leave at default
			}
			// Pick a random non-empty subset as locator.
			var loc []string
			for _, w := range words {
				if rng.Intn(2) == 0 {
					loc = append(loc, w)
				}
			}
			if len(loc) == 0 {
				loc = words[:1]
			}
			mapping[setKey(words)] = loc
		}
		ix, err := NewWithMapping(c.Ads, mapping, Options{})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			ad := &c.Ads[rng.Intn(len(c.Ads))]
			q := textnorm.CanonicalSet(append([]string{"zq"}, ad.Words...))
			a := matchIDs(base.BroadMatch(q, nil))
			b := matchIDs(ix.BroadMatch(q, nil))
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestContainsContiguous(t *testing.T) {
	cases := []struct {
		hay, needle string
		want        bool
	}{
		{"a b c", "a b", true},
		{"a b c", "b c", true},
		{"a b c", "a c", false},
		{"a b c", "a b c", true},
		{"a b c", "a b c d", false},
		{"a b c", "", true},
		{"a b a b c", "a b c", true},
		{"x a b", "a b", true},
	}
	for _, c := range cases {
		got := textnorm.ContainsContiguous(textnorm.Tokenize(c.hay), textnorm.Tokenize(c.needle))
		if got != c.want {
			t.Errorf("containsContiguous(%q, %q) = %v", c.hay, c.needle, got)
		}
	}
}

func TestMappingExposed(t *testing.T) {
	ads := mustAds("a b c d e f g h i j k l")
	ix := New(ads, Options{MaxWords: 4})
	m := ix.Mapping()
	key := ads[0].SetKey()
	loc, ok := m[key]
	if !ok {
		t.Fatalf("mapping missing set %q", key)
	}
	if len(loc) != 4 {
		t.Errorf("locator = %v, want 4 words", loc)
	}
	if !textnorm.IsSubset(loc, ads[0].Words) {
		t.Errorf("locator %v not a subset", loc)
	}
}

func ExampleIndex_BroadMatchText() {
	ads := []corpus.Ad{
		corpus.NewAd(1, "used books", corpus.Meta{}),
		corpus.NewAd(2, "comic books", corpus.Meta{}),
	}
	ix := New(ads, Options{})
	for _, ad := range ix.BroadMatchText("cheap used books", nil) {
		fmt.Println(ad.Phrase)
	}
	// Output: used books
}

package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

func TestOptionsAccessors(t *testing.T) {
	ix := New(nil, Options{MaxWords: 7, MaxQueryWords: 9})
	o := ix.Options()
	if o.MaxWords != 7 || o.MaxQueryWords != 9 {
		t.Errorf("Options = %+v", o)
	}
	ix2 := New(mustAds("a b", "a b", "c"), Options{})
	if got := ix2.NumDistinctSets(); got != 2 {
		t.Errorf("NumDistinctSets = %d", got)
	}
}

func TestExtendHashExported(t *testing.T) {
	h := ExtendHash(HashSeed, true, "cheap")
	h = ExtendHash(h, false, "used")
	if h != WordHash([]string{"cheap", "used"}) {
		t.Error("ExtendHash disagrees with WordHash")
	}
}

func TestExactMatchCountedAndMisses(t *testing.T) {
	ix := New(mustAds("used books", "used books online"), Options{})
	var c costmodel.Counters
	// Miss: set not indexed.
	if got := ix.ExactMatch("never indexed phrase", &c); got != nil {
		t.Errorf("miss matched %v", got)
	}
	// The one probe of H is charged mem_hash = 16 bytes, and nothing else.
	if c.Queries != 1 || c.HashProbes != 1 || c.BytesScanned != 16 {
		t.Errorf("miss counters: %+v", c)
	}
	// Hit with counters.
	got := ix.ExactMatch("used books", &c)
	if len(got) != 1 {
		t.Fatalf("hit = %v", got)
	}
	if c.NodesVisited == 0 || c.PhrasesChecked == 0 || c.Matches != 1 {
		t.Errorf("hit counters: %+v", c)
	}
}

func TestExactMatchHashSiblingFiltered(t *testing.T) {
	// Two different sets re-mapped into one node: exact match must not
	// return the sibling.
	ads := mustAds("cheap books", "cheap used books")
	mapping := map[string][]string{
		setKey([]string{"books", "cheap"}):         {"books"},
		setKey([]string{"books", "cheap", "used"}): {"books"},
	}
	ix, err := NewWithMapping(ads, mapping, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.ExactMatch("cheap books", nil)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("ExactMatch in merged node = %v", got)
	}
}

func TestPhraseMatchCounted(t *testing.T) {
	ix := New(mustAds("used books", "rare maps"), Options{})
	var c costmodel.Counters
	got := ix.PhraseMatch("buy used books here", &c)
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if c.Queries != 1 || c.Matches != 1 || c.PhrasesChecked == 0 {
		t.Errorf("counters: %+v", c)
	}
	if got := ix.PhraseMatch("zzz yyy", &c); got != nil {
		t.Errorf("unknown words matched %v", got)
	}
}

func TestPrepareQueryCutoffKeepsRarest(t *testing.T) {
	// 6 indexed words, cutoff 3: the 3 rarest must be kept.
	ads := mustAds(
		"w1", "w1", "w1", "w1", // w1 common
		"w2", "w2", "w2",
		"w3", "w3",
		"w4",
		"w5",
		"w6",
	)
	ix := New(ads, Options{MaxWords: 3, MaxQueryWords: 3})
	q := PrepareQuery(nil, []string{"w1", "w2", "w3", "w4", "w5", "w6"}, ix.DocFreqs(), ix.Options().MaxQueryWords)
	if len(q) != 3 {
		t.Fatalf("q = %v", q)
	}
	// w4, w5, w6 are the rarest (df 1 each).
	want := []string{"w4", "w5", "w6"}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("PrepareQuery kept %v, want %v", q, want)
	}
}

// TestLongInputCutStaysBounded feeds the rarest-words rule inputs of
// thousands of indexed words: a query, cut to MaxQueryWords (the paper's
// Section IV-B option, set here) by prepare,
// and a phrase, re-mapped to MaxWords on bulk load, on Insert and by
// Locator. Ranking must cost O(n log n), not a search of the words per
// comparison, and a warmed scratch must prepare the query without
// allocating. Only the cuts are timed, not the build around them.
func TestLongInputCutStaysBounded(t *testing.T) {
	const n = 20000
	words := make([]string, n)
	var ads []corpus.Ad
	for i := range words {
		words[i] = fmt.Sprintf("w%05d", i)
		ads = append(ads, corpus.NewAd(uint64(len(ads)+1), words[i], corpus.Meta{}))
		if i%3 == 0 { // every third word is commoner
			ads = append(ads, corpus.NewAd(uint64(len(ads)+1), words[i], corpus.Meta{}))
		}
	}
	phrase := strings.Join(words, " ")
	ix := New(append(ads, corpus.NewAd(uint64(len(ads)+1), phrase, corpus.Meta{})), Options{MaxQueryWords: 12})
	sc := new(Scratch)
	start := time.Now()
	ix.Insert(corpus.NewAd(uint64(len(ads)+2), phrase[len("w00000 "):], corpus.Meta{}))
	loc := ix.Locator(words)
	ix.prepare(sc, words)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cutting %d-word inputs took %v", n, elapsed)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(loc) != ix.Options().MaxWords || loc[0] != "w00001" {
		t.Errorf("Locator of the long phrase = %v", loc)
	}
	if len(sc.q) != 12 {
		t.Fatalf("a query of %d indexed words was cut to %d", n, len(sc.q))
	}
	want := PrepareQuery(nil, words, ix.DocFreqs(), ix.Options().MaxQueryWords)
	if !reflect.DeepEqual(sc.q, want) {
		t.Errorf("prepare kept %v, PrepareQuery %v", sc.q, want)
	}
	for i, w := range sc.q {
		if id, _ := ix.voc.id(w); sc.qids[i] != id || sc.qh[i] != wordKey(w) {
			t.Fatalf("prepared word %q misaligned with its ID or key", w)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { ix.prepare(sc, words) }); allocs != 0 {
		t.Errorf("prepare of a %d-word query allocates %.0f times", n, allocs)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	corrupt := map[string]func(ix *Index){
		"byte count":   func(ix *Index) { ix.bytes += 7 },
		"signature":    func(ix *Index) { ix.sigs[0] ^= 1 },
		"word count":   func(ix *Index) { ix.wcs[0]++ },
		"set joint":    func(ix *Index) { ix.sameKey[0] = true },
		"word ID":      func(ix *Index) { ix.wordIDs[0] = uint32(len(ix.voc.words)) },
		"frequency":    func(ix *Index) { ix.voc.df[0]++ },
		"set count":    func(ix *Index) { ix.sets++ },
		"empty node":   func(ix *Index) { ix.nodes[0].n = 0 },
		"text":         func(ix *Index) { ix.textUsed-- },
		"vocabulary":   func(ix *Index) { clear(ix.voc.table) },
		"stray word":   func(ix *Index) { ix.voc.table[slices.Index(ix.voc.table, 0)] = 1 },
		"successor":    func(ix *Index) { clear(ix.voc.succ) },
		"dangling set": func(ix *Index) { ix.locOf[setKey([]string{"p", "q"})] = []string{"p"} },
		"locator": func(ix *Index) {
			ix.locOf[setKey([]string{"c", "d"})] = []string{"no", "such", "locator"}
		},
	}
	for name, fn := range corrupt {
		ix := New(mustAds("a b", "c d", "a b"), Options{})
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		fn(ix)
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s corruption undetected", name)
		}
	}
}

func TestCheckOrderedDetects(t *testing.T) {
	// "a" and "a b" share the node of locator {a}.
	ix, err := NewWithMapping(mustAds("a b", "a"), map[string][]string{setKey([]string{"a", "b"}): {"a"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("valid node reported broken: %v", err)
	}
	swap := func(col []uint32) { col[0], col[1] = col[1], col[0] }
	swap(ix.wcs)
	swap(ix.wordAt)
	swap(ix.textAt)
	ix.ids[0], ix.ids[1] = ix.ids[1], ix.ids[0]
	ix.sigs[0], ix.sigs[1] = ix.sigs[1], ix.sigs[0]
	if err := ix.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("swapped node reported %v, want out of order", err)
	}
}

func TestDeleteSharedLocatorKeepsNode(t *testing.T) {
	// Two sets mapped to one locator; deleting one set's ads must keep
	// the node (and the other set) intact.
	ads := mustAds("cheap books", "cheap used books")
	mapping := map[string][]string{
		setKey([]string{"books", "cheap"}):         {"books", "cheap"},
		setKey([]string{"books", "cheap", "used"}): {"books", "cheap"},
	}
	ix, err := NewWithMapping(ads, mapping, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(1, "cheap books") {
		t.Fatal("delete failed")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := ix.BroadMatch(textnorm.WordSet("cheap used books"), nil)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("survivor lost: %v", got)
	}
}

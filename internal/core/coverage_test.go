package core

import (
	"reflect"
	"strings"
	"testing"

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
	q, _ := PrepareQuery(nil, []string{"w1", "w2", "w3", "w4", "w5", "w6"}, ix.DocFreqs(), ix.Options().MaxQueryWords)
	if len(q) != 3 {
		t.Fatalf("q = %v", q)
	}
	// w4, w5, w6 are the rarest (df 1 each).
	want := []string{"w4", "w5", "w6"}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("PrepareQuery kept %v, want %v", q, want)
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
		"vocabulary":   func(ix *Index) { ix.voc.ids["zzz"] = 0 },
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

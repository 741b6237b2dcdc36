package core

import (
	"reflect"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

func TestOptionsAccessors(t *testing.T) {
	ix := New(nil, Options{MaxWords: 7, MaxQueryWords: 9, MemHash: 32})
	o := ix.Options()
	if o.MaxWords != 7 || o.MaxQueryWords != 9 || o.MemHash != 32 {
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
	if c.Queries != 1 || c.HashProbes != 1 {
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
	q, _ := ix.prepareQueryCut(nil, []string{"w1", "w2", "w3", "w4", "w5", "w6"})
	if len(q) != 3 {
		t.Fatalf("q = %v", q)
	}
	// w4, w5, w6 are the rarest (df 1 each).
	want := []string{"w4", "w5", "w6"}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("prepareQueryCut kept %v, want %v", q, want)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	ix := New(mustAds("a b", "c d"), Options{})
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a node's byte counter.
	ix.table.each(func(_ uint64, n *node) bool {
		n.bytes += 7
		return false
	})
	if err := ix.CheckInvariants(); err == nil {
		t.Error("byte-count corruption undetected")
	}
	// Fresh index: corrupt record order.
	ix2 := New(mustAds("a", "a b c"), Options{})
	ix2.table.each(func(_ uint64, n *node) bool {
		if len(n.records) >= 2 {
			n.records[0], n.records[1] = n.records[1], n.records[0]
		}
		return true
	})
	err := ix2.CheckInvariants()
	_ = err // order corruption only exists if a node had 2 records; accept either
	// Corrupt locOf to point at a missing locator.
	ix3 := New(mustAds("x y"), Options{})
	ix3.locOf[setKey([]string{"x", "y"})] = []string{"no", "such", "locator"}
	if err := ix3.CheckInvariants(); err == nil {
		t.Error("dangling locator undetected")
	}
	// Empty node.
	ix4 := New(mustAds("p q"), Options{})
	ix4.table.each(func(_ uint64, n *node) bool {
		n.records = nil
		return false
	})
	if err := ix4.CheckInvariants(); err == nil {
		t.Error("empty node undetected")
	}
}

func TestCheckOrderedDetects(t *testing.T) {
	n := &node{}
	n.insert(corpus.NewAd(1, "a b", corpus.Meta{}))
	n.insert(corpus.NewAd(2, "c", corpus.Meta{}))
	if !n.checkOrdered() {
		t.Fatal("valid node reported unordered")
	}
	n.records[0], n.records[1] = n.records[1], n.records[0]
	if n.checkOrdered() {
		t.Fatal("swapped node reported ordered")
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

package core

import (
	"fmt"
	"slices"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// bareNode returns an index with one node outside H, for the tests that
// drive a node's records directly.
func bareNode() (*Index, uint32) {
	ix := New(nil, Options{})
	return ix, ix.newNode()
}

// insert writes ad into node k as Insert does once it has found the node.
func (ix *Index) insert(k uint32, ad corpus.Ad) {
	ids := make([]uint32, len(ad.Words))
	for i, w := range ad.Words {
		ids[i] = ix.voc.intern(w)
	}
	ix.insertRecord(k, &ad, ids)
}

// remove deletes the record of node k with the given ID and phrase, as
// Index.Delete does: find, then removeRecord.
func (ix *Index) remove(k uint32, id uint64, phrase string) bool {
	ids, ok := ix.voc.appendIDs(nil, textnorm.WordSet(phrase))
	if !ok {
		return false
	}
	i := ix.find(k, ids, id)
	if i < 0 {
		return false
	}
	ix.removeRecord(k, uint32(i))
	return true
}

// checkNodeColumns verifies node k's order and columns as CheckInvariants
// does.
func (ix *Index) checkNodeColumns(k uint32) error {
	nd := ix.nodes[k]
	for r := nd.off; r < nd.off+nd.n; r++ {
		words := make([]string, ix.wcs[r])
		for i, id := range ix.recWords(r) {
			words[i] = ix.voc.words[id]
		}
		if ix.sigs[r] != SetSignature(words) {
			return fmt.Errorf("record %d: signature out of sync", r)
		}
		if r > nd.off && ix.compareRecord(r-1, ix.recWords(r), ix.ids[r]) > 0 {
			return fmt.Errorf("record %d: out of order", r)
		}
		if same := r > nd.off && ix.sameSet(r-1, r); ix.sameKey[r] != same {
			return fmt.Errorf("record %d: set joint %v, want %v", r, ix.sameKey[r], same)
		}
	}
	return nil
}

// records lists node k's records as "ID/phrase".
func (ix *Index) records(k uint32) []string {
	nd := ix.nodes[k]
	var out []string
	for r := nd.off; r < nd.off+nd.n; r++ {
		out = append(out, fmt.Sprintf("%d/%s", ix.ids[r], ix.phrase(r)))
	}
	return out
}

// TestNodeRemoveMixedLengths: the binary-searched remove must delete
// exactly the (ID, word set) record from a node holding mixed-length
// records, several word sets per length class, and duplicate IDs across
// sets.
func TestNodeRemoveMixedLengths(t *testing.T) {
	ix, k := bareNode()
	type rec struct {
		id     uint64
		phrase string
	}
	recs := []rec{
		{1, "zebra"},
		{2, "apple"},
		{3, "apple pie"},
		{4, "zebra apple"},
		{2, "zebra apple"}, // same ID as a 1-word record, different set
		{5, "apple pie crust"},
		{6, "banana apple pie"},
		{7, "zebra apple pie crust"},
		{5, "apple pie"}, // same set as ID 3, different ID
	}
	for _, r := range recs {
		ix.insert(k, corpus.NewAd(r.id, r.phrase, corpus.Meta{}))
	}
	if err := ix.checkNodeColumns(k); err != nil {
		t.Fatalf("node invariants broken after inserts: %v", err)
	}

	// Misses: wrong ID for an existing set, wrong set for an existing ID.
	if ix.remove(k, 99, "apple pie") {
		t.Fatal("removed a record with an absent ID")
	}
	if ix.remove(k, 1, "apple pie crust") {
		t.Fatal("removed a record with a mismatched set")
	}

	// Remove (2, "zebra apple") and verify the 1-word record with ID 2 and
	// the other 2-word records survive.
	if !ix.remove(k, 2, "zebra apple") {
		t.Fatal("remove of (2, zebra apple) missed")
	}
	wantLeft := []string{"1/zebra", "2/apple", "3/apple pie", "4/zebra apple", "5/apple pie",
		"5/apple pie crust", "6/banana apple pie", "7/zebra apple pie crust"}
	got := ix.records(k)
	slices.Sort(got)
	if !slices.Equal(got, wantLeft) {
		t.Fatalf("node holds %v, want %v", got, wantLeft)
	}

	// Remove one of the two records sharing the "apple pie" set; exactly
	// the requested ID must go.
	if !ix.remove(k, 5, "apple pie") {
		t.Fatal("remove of (5, apple pie) missed")
	}
	if slices.Contains(ix.records(k), "5/apple pie") {
		t.Fatal("(5, apple pie) still present")
	}
	if ix.remove(k, 5, "apple pie") {
		t.Fatal("second remove of (5, apple pie) should miss")
	}

	// Drain the rest and confirm the columns stay aligned the whole way down.
	rest := []rec{{1, "zebra"}, {2, "apple"}, {3, "apple pie"}, {4, "zebra apple"},
		{5, "apple pie crust"}, {6, "banana apple pie"}, {7, "zebra apple pie crust"}}
	for _, r := range rest {
		if !ix.remove(k, r.id, r.phrase) {
			t.Fatalf("remove of (%d, %s) missed", r.id, r.phrase)
		}
		if err := ix.checkNodeColumns(k); err != nil {
			t.Fatalf("node invariants broken after removing (%d, %s): %v", r.id, r.phrase, err)
		}
	}
	if ix.nodes[k].n != 0 || ix.bytes != 0 || ix.sets != 0 {
		t.Fatalf("node not empty after draining: %d records, %d bytes, %d sets", ix.nodes[k].n, ix.bytes, ix.sets)
	}
}

// TestNodeRemoveDuplicateRecords covers duplicate (ID, set) records:
// each remove takes exactly one.
func TestNodeRemoveDuplicateRecords(t *testing.T) {
	ix, k := bareNode()
	ad := corpus.NewAd(9, "used books", corpus.Meta{BidMicros: 100})
	ix.insert(k, ad)
	ix.insert(k, ad)
	ix.insert(k, corpus.NewAd(9, "rare books", corpus.Meta{}))
	if !ix.remove(k, 9, ad.Phrase) {
		t.Fatal("first remove missed")
	}
	if ix.nodes[k].n != 2 {
		t.Fatalf("%d records left, want 2", ix.nodes[k].n)
	}
	if !ix.remove(k, 9, ad.Phrase) {
		t.Fatal("second remove missed")
	}
	if ix.remove(k, 9, ad.Phrase) {
		t.Fatal("third remove should miss")
	}
	if got := ix.records(k); !slices.Equal(got, []string{"9/rare books"}) {
		t.Fatalf("wrong survivor: %v", got)
	}
	if err := ix.checkNodeColumns(k); err != nil {
		t.Fatal(err)
	}
}

// TestIndexDeleteMixedLengthNodes drives the binary-searched remove
// through the public Delete path on a node that co-locates several word
// sets (re-mapped long phrases), the shape the satellite bugfix targets.
func TestIndexDeleteMixedLengthNodes(t *testing.T) {
	// MaxWords 2 forces every longer phrase onto a 2-word locator, so
	// locator nodes hold mixed-length record groups.
	ix := New(nil, Options{MaxWords: 2})
	phrases := []string{
		"alpha beta",
		"alpha beta gamma",
		"alpha beta gamma delta",
		"alpha beta epsilon",
		"beta gamma",
	}
	for i, p := range phrases {
		ix.Insert(corpus.NewAd(uint64(i+1), p, corpus.Meta{}))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete the middle-length record; its neighbors in the same node must
	// survive.
	if !ix.Delete(2, "alpha beta gamma") {
		t.Fatal("delete missed")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := textnorm.WordSet("alpha beta gamma delta epsilon")
	var ids []uint64
	for _, m := range ix.BroadMatch(q, nil) {
		ids = append(ids, m.ID)
	}
	if want := []uint64{1, 3, 4, 5}; !slices.Equal(ids, want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	if ix.Delete(2, "alpha beta gamma") {
		t.Fatal("double delete should miss")
	}
}

package core

import (
	"fmt"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// TestNodeRemoveMixedLengths is the regression test for the remove
// satellite: the binary-searched remove must delete exactly the
// (ID, set key) record from a node holding mixed-length records, several
// set keys per length class, and duplicate IDs across keys.
// remove deletes the record with the given ID and set key, as Index.Delete
// does: find, then removeAt.
func (n *node) remove(id uint64, key string) bool {
	i := n.find(id, key)
	if i < 0 {
		return false
	}
	n.removeAt(i)
	return true
}

func TestNodeRemoveMixedLengths(t *testing.T) {
	n := &node{id: 1}
	type rec struct {
		id     uint64
		phrase string
	}
	recs := []rec{
		{1, "zebra"},
		{2, "apple"},
		{3, "apple pie"},
		{4, "zebra apple"},
		{2, "zebra apple"}, // same ID as a 1-word record, different key
		{5, "apple pie crust"},
		{6, "banana apple pie"},
		{7, "zebra apple pie crust"},
		{5, "apple pie"}, // same key as ID 3, different ID
	}
	for _, r := range recs {
		n.insert(corpus.NewAd(r.id, r.phrase, corpus.Meta{}))
	}
	if !n.checkOrdered() || !n.checkColumns() {
		t.Fatal("node invariants broken after inserts")
	}

	key := func(p string) string { return textnorm.SetKey(textnorm.WordSet(p)) }

	// Misses: wrong ID for an existing key, wrong key for an existing ID.
	if n.remove(99, key("apple pie")) {
		t.Fatal("removed a record with an absent ID")
	}
	if n.remove(1, key("apple pie crust")) {
		t.Fatal("removed a record with a mismatched key")
	}

	// Remove (2, "zebra apple") and verify the 1-word record with ID 2 and
	// the other 2-word records survive.
	if !n.remove(2, key("zebra apple")) {
		t.Fatal("remove of (2, zebra apple) missed")
	}
	wantLeft := map[string]bool{
		"1/zebra": true, "2/apple": true, "3/apple pie": true,
		"4/zebra apple": true, "5/apple pie crust": true,
		"6/banana apple pie": true, "7/zebra apple pie crust": true,
		"5/apple pie": true,
	}
	if len(n.records) != len(wantLeft) {
		t.Fatalf("node holds %d records, want %d", len(n.records), len(wantLeft))
	}
	for i := range n.records {
		k := fmt.Sprintf("%d/%s", n.records[i].ID, n.records[i].Phrase)
		if !wantLeft[k] {
			t.Fatalf("unexpected survivor %s", k)
		}
	}

	// Remove one of the two records sharing the "apple pie" key; exactly
	// the requested ID must go.
	if !n.remove(5, key("apple pie")) {
		t.Fatal("remove of (5, apple pie) missed")
	}
	for i := range n.records {
		if n.records[i].ID == 5 && n.records[i].Phrase == "apple pie" {
			t.Fatal("(5, apple pie) still present")
		}
	}
	if n.remove(5, key("apple pie")) {
		t.Fatal("second remove of (5, apple pie) should miss")
	}

	// Drain the rest and confirm columns stay aligned the whole way down.
	rest := []rec{{1, "zebra"}, {2, "apple"}, {3, "apple pie"}, {4, "zebra apple"},
		{5, "apple pie crust"}, {6, "banana apple pie"}, {7, "zebra apple pie crust"}}
	for _, r := range rest {
		if !n.remove(r.id, key(r.phrase)) {
			t.Fatalf("remove of (%d, %s) missed", r.id, r.phrase)
		}
		if !n.checkOrdered() || !n.checkColumns() {
			t.Fatalf("node invariants broken after removing (%d, %s)", r.id, r.phrase)
		}
	}
	if len(n.records) != 0 || n.bytes != 0 {
		t.Fatalf("node not empty after draining: %d records, %d bytes", len(n.records), n.bytes)
	}
}

// TestNodeRemoveDuplicateRecords covers duplicate (ID, key) records:
// each remove takes exactly one.
func TestNodeRemoveDuplicateRecords(t *testing.T) {
	n := &node{id: 1}
	ad := corpus.NewAd(9, "used books", corpus.Meta{BidMicros: 100})
	n.insert(ad)
	n.insert(ad)
	n.insert(corpus.NewAd(9, "rare books", corpus.Meta{}))
	key := textnorm.SetKey(ad.Words)
	if !n.remove(9, key) {
		t.Fatal("first remove missed")
	}
	if len(n.records) != 2 {
		t.Fatalf("%d records left, want 2", len(n.records))
	}
	if !n.remove(9, key) {
		t.Fatal("second remove missed")
	}
	if n.remove(9, key) {
		t.Fatal("third remove should miss")
	}
	if len(n.records) != 1 || n.records[0].Phrase != "rare books" {
		t.Fatalf("wrong survivor: %+v", n.records)
	}
	if !n.checkColumns() {
		t.Fatal("columns out of sync")
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
	want := []uint64{1, 3, 4, 5}
	if len(ids) != len(want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}
	if ix.Delete(2, "alpha beta gamma") {
		t.Fatal("double delete should miss")
	}
}

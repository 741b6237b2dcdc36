package adindex

import (
	"bytes"
	"fmt"
	"testing"

	"adindex/internal/optimize"
	"adindex/internal/textnorm"
)

// stamps returns how many slots of the word version table have ever been
// written and the newest epoch among them.
func stamps(ix *Index) (n int, newest uint64) {
	for i := range ix.changed {
		if e := ix.changed[i].Load(); e > 0 {
			n++
			newest = max(newest, e)
		}
	}
	return n, newest
}

// TestChangedAt walks every mutator and pins which of them stamp a word:
// an insert and a delete that found its record stamp exactly one slot, that
// of the record's rarest word, with the epoch they publish; everything that
// leaves answers alone stamps nothing, whatever it does to Epoch.
func TestChangedAt(t *testing.T) {
	ix := Build(sampleAds(), Options{MaxDeltaAds: 4})
	at := func(q string) uint64 { return ix.View().ChangedAt(textnorm.WordSet(q)) }
	if n, _ := stamps(ix); n != 0 || at("cheap used books") != 0 {
		t.Fatalf("a freshly built index has %d stamped slots", n)
	}

	// An insert stamps its rarest word: "zanzibar" is in no base record,
	// "books" is in all four.
	ix.Insert(NewAd(10, "books zanzibar", Meta{}))
	e := ix.Epoch()
	if n, newest := stamps(ix); n != 1 || newest != e {
		t.Fatalf("insert stamped %d slots, newest %d; want 1 at epoch %d", n, newest, e)
	}
	if got := at("zanzibar"); got != e {
		t.Errorf("ChangedAt(zanzibar) = %d, want %d", got, e)
	}
	if got := at("cheap zanzibar books today"); got != e {
		t.Errorf("ChangedAt of a query containing the ad's words = %d, want %d", got, e)
	}
	if got := at("cheap used books"); got != 0 {
		t.Errorf("ChangedAt(cheap used books) = %d: a query without the rarest word was touched", got)
	}

	// A View taken before a write reports it: the table is the index's.
	old := ix.View()
	ix.Insert(NewAd(11, "comic zebra", Meta{}))
	if got := old.ChangedAt([]string{"comic", "zebra"}); got != ix.Epoch() || got <= old.Epoch() {
		t.Errorf("an older view's ChangedAt = %d, index at %d, view at %d", got, ix.Epoch(), old.Epoch())
	}

	// Deletes: one of an overlay ad, one of a base record (a tombstone).
	if !ix.Delete(11, "zebra comic") {
		t.Fatal("delete of the overlay ad found nothing")
	}
	if got := at("comic zebra"); got != ix.Epoch() {
		t.Errorf("after an overlay delete ChangedAt = %d, want %d", got, ix.Epoch())
	}
	if !ix.Delete(3, "cheap used books") {
		t.Fatal("delete of base ad 3 found nothing")
	}
	if got := at("books cheap used"); got != ix.Epoch() {
		t.Errorf("after a tombstone ChangedAt = %d, want %d", got, ix.Epoch())
	}
	if got := at("used books"); got == ix.Epoch() {
		t.Error("deleting cheap used books touched used books: cheap is the rarer word")
	}

	// None of these changes an answer.
	n0, newest0 := stamps(ix)
	e0 := ix.Epoch()
	quiet := func(what string) {
		t.Helper()
		if n, newest := stamps(ix); n != n0 || newest != newest0 {
			t.Errorf("%s stamped a word: %d slots newest %d, were %d newest %d", what, n, newest, n0, newest0)
		}
	}
	if ix.Delete(3, "cheap used books") {
		t.Fatal("ad 3 deleted twice")
	}
	quiet("a delete that found nothing")
	ix.Insert(NewAd(12, "?!", Meta{}))
	quiet("an insert with no words")
	ix.BroadMatch("used books")
	if _, err := ix.Optimize(); err != nil {
		t.Fatal(err)
	}
	quiet("Optimize")
	var buf bytes.Buffer
	if err := optimize.WriteMapping(&buf, map[string][]string{"books\x1fused": {"books"}}); err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyMapping(&buf); err != nil {
		t.Fatal(err)
	}
	quiet("ApplyMapping")
	ix.Insert(NewAd(13, "quiet filler", Meta{}))
	n0, newest0 = stamps(ix)
	if err := ix.CheckInvariants(); err != nil { // folds the overlay
		t.Fatal(err)
	}
	quiet("a fold")
	if ix.Epoch() < e0+5 {
		t.Errorf("epoch %d -> %d: each of those but the fold advances it", e0, ix.Epoch())
	}

	// A query the MaxQueryWords cutoff can reach answers from document
	// frequencies: only the view's own epoch is new enough for it.
	var long []string
	for i := 0; i < 13; i++ {
		long = append(long, fmt.Sprintf("w%02d", i))
	}
	v := ix.View()
	if got := v.ChangedAt(long); got != v.Epoch() {
		t.Errorf("ChangedAt of a 13-word query = %d, want the view's epoch %d", got, v.Epoch())
	}
	if got := v.ChangedAt(long[:12]); got == v.Epoch() {
		t.Errorf("ChangedAt of a 12-word query of unwritten words = %d", got)
	}
}

// TestFoldStats: every path that folds the overlay is counted and timed.
func TestFoldStats(t *testing.T) {
	ix := Build(sampleAds(), Options{MaxDeltaAds: 2})
	if n, sec := ix.FoldStats(); n != 0 || sec != 0 {
		t.Fatalf("fresh index: %d folds, %v s", n, sec)
	}
	for i := 0; i < 3; i++ { // the third insert finds the overlay full
		ix.Insert(NewAd(uint64(20+i), fmt.Sprintf("filler %d", i), Meta{}))
	}
	if n, _ := ix.FoldStats(); n != 1 {
		t.Errorf("after overflowing the overlay: %d folds, want 1", n)
	}
	ix.Insert(NewAd(30, "pending", Meta{}))
	ix.Stats() // folds what is pending
	n, sec := ix.FoldStats()
	if n != 2 || sec <= 0 {
		t.Errorf("after Stats: %d folds in %v s, want 2 in more than none", n, sec)
	}
	if got := idsOf(ix.BroadMatch("filler 0 1 2 pending")); len(got) != 4 {
		t.Errorf("inserted ads after the folds: %v", got)
	}
}

package adindex

import (
	"fmt"
	"reflect"
	"testing"
)

// TestOverlayFoldThreshold drives many mutations through a tiny overlay
// and checks results and counts stay exact across fold boundaries.
func TestOverlayFoldThreshold(t *testing.T) {
	ix := Build(sampleAds(), Options{MaxDeltaAds: 4})
	for i := 0; i < 20; i++ {
		ix.Insert(NewAd(100+uint64(i), fmt.Sprintf("threshold phrase %d", i), Meta{}))
	}
	if got, want := ix.NumAds(), len(sampleAds())+20; got != want {
		t.Fatalf("NumAds = %d, want %d", got, want)
	}
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf("big threshold phrase %d query", i)
		if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, []uint64{100 + uint64(i)}) {
			t.Fatalf("BroadMatch(%q) = %v", q, got)
		}
	}
	// Delete half of them again (some folded into the base, some not).
	for i := 0; i < 10; i++ {
		if !ix.Delete(100+uint64(i), fmt.Sprintf("threshold phrase %d", i)) {
			t.Fatalf("Delete %d missed", i)
		}
	}
	if got, want := ix.NumAds(), len(sampleAds())+10; got != want {
		t.Fatalf("NumAds after deletes = %d, want %d", got, want)
	}
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("big threshold phrase %d query", i)
		if got := ix.BroadMatch(q); len(got) != 0 {
			t.Fatalf("deleted ad still matches: %v", idsOf(got))
		}
	}
	if err := checkStatsConsistent(ix); err != nil {
		t.Fatal(err)
	}
}

func checkStatsConsistent(ix *Index) error {
	s := ix.Stats()
	if s.NumAds != ix.NumAds() {
		return fmt.Errorf("Stats.NumAds = %d, NumAds() = %d", s.NumAds, ix.NumAds())
	}
	return nil
}

// TestTombstoneThenReinsert deletes a base-resident ad (tombstone) and
// re-inserts the same ID/phrase (delta); each state must answer exactly.
func TestTombstoneThenReinsert(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	if !ix.Delete(1, "used books") {
		t.Fatal("delete of base ad missed")
	}
	if got := idsOf(ix.BroadMatch("used books now")); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("tombstoned ad still visible: %v", got)
	}
	if ix.Delete(1, "used books") {
		t.Fatal("double delete reported found")
	}
	ix.Insert(NewAd(1, "used books", Meta{BidMicros: 1}))
	if got := idsOf(ix.BroadMatch("used books now")); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("re-inserted ad missing: %v", got)
	}
	if !ix.Delete(1, "used books") {
		t.Fatal("delete of re-inserted (delta) ad missed")
	}
	if got := idsOf(ix.BroadMatch("used books now")); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("delta delete ineffective: %v", got)
	}
}

// TestDeleteDuplicateRecords checks one-at-a-time deletion semantics for
// duplicate (ID, phrase) records, which tombstone counting must preserve.
func TestDeleteDuplicateRecords(t *testing.T) {
	ads := append(sampleAds(), NewAd(1, "used books", Meta{BidMicros: 7}))
	ix := Build(ads, Options{})
	if got := idsOf(ix.BroadMatch("used books")); !reflect.DeepEqual(got, []uint64{1, 1, 4}) {
		t.Fatalf("duplicate records not both indexed: %v", got)
	}
	if !ix.Delete(1, "used books") {
		t.Fatal("first delete missed")
	}
	if got := idsOf(ix.BroadMatch("used books")); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("one duplicate should remain: %v", got)
	}
	if !ix.Delete(1, "used books") {
		t.Fatal("second delete missed")
	}
	if got := idsOf(ix.BroadMatch("used books")); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("both duplicates should be gone: %v", got)
	}
	if ix.Delete(1, "used books") {
		t.Fatal("third delete reported found")
	}
	if got, want := ix.NumAds(), len(ads)-2; got != want {
		t.Fatalf("NumAds = %d, want %d", got, want)
	}
}

// TestOverlayExactAndPhrase checks that the delta overlay and tombstones
// are honored by the exact- and phrase-match paths, not just broad match.
func TestOverlayExactAndPhrase(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.Insert(NewAd(77, "rare first edition", Meta{}))

	if got := idsOf(ix.Match(nil, Query{Text: "rare first edition", Type: Exact}).Ads); !reflect.DeepEqual(got, []uint64{77}) {
		t.Fatalf("exact match misses delta ad: %v", got)
	}
	if got := idsOf(ix.Match(nil, Query{Text: "buy a rare first edition today", Type: Phrase}).Ads); !reflect.DeepEqual(got, []uint64{77}) {
		t.Fatalf("phrase match misses delta ad: %v", got)
	}
	if !ix.Delete(2, "comic books") {
		t.Fatal("delete missed")
	}
	if got := ix.Match(nil, Query{Text: "comic books", Type: Exact}).Ads; len(got) != 0 {
		t.Fatalf("exact match returns tombstoned ad: %v", idsOf(got))
	}
	if got := ix.Match(nil, Query{Text: "cheap comic books online", Type: Phrase}).Ads; len(got) != 0 {
		t.Fatalf("phrase match returns tombstoned ad: %v", idsOf(got))
	}
}

// TestDeltaOnlyWordsMatch covers the subtle base-vocabulary trap: a query
// word that exists only in delta ads is dropped by the base's query
// preparation, but the delta scan must still see it.
func TestDeltaOnlyWordsMatch(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.Insert(NewAd(300, "zyzzyva auction", Meta{}))
	if got := idsOf(ix.BroadMatch("zyzzyva auction lots")); !reflect.DeepEqual(got, []uint64{300}) {
		t.Fatalf("delta-only vocabulary lost: %v", got)
	}
}

package adindex

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
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

// TestRecoveredOverlayIsNotFolded: a durable index recovered over a WAL
// tail serves that tail as its overlay, and reading its stats (as adserve
// does before it reports ready) folds nothing.
func TestRecoveredOverlayIsNotFolded(t *testing.T) {
	dir := t.TempDir()
	dc := DurableConfig{SnapshotEvery: -1, Bootstrap: sampleAds()}
	ix, _, err := OpenDurable(dir, Options{}, dc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ix.Insert(NewAd(uint64(60+i), fmt.Sprintf("wal tail %d", i), Meta{}))
	}
	ix.Delete(1, "used books")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix, _, err = OpenDurable(dir, Options{}, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	st := ix.Stats()
	if folds, _ := ix.FoldStats(); folds != 0 {
		t.Errorf("recovery and Stats ran %d folds, want 0", folds)
	}
	if st.NumAds != len(sampleAds())+4 || st.Overlay != 6 || st.NumNodes != 3 {
		t.Errorf("Stats after recovering a 6-record tail: %+v, want %d ads, an overlay of 6 beside the base's 3 nodes",
			st, len(sampleAds())+4)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReadsTakeNoWriterLock: with an overlay pending and the writer lock
// held, Stats and CheckInvariants still return: they read the published
// snapshot as it stands.
func TestReadsTakeNoWriterLock(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.Insert(NewAd(40, "pending overlay ad", Meta{}))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		ix.Stats()
		done <- ix.CheckInvariants()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats or CheckInvariants waited for the writer lock")
	}
}

// TestCheckInvariantsOverlay: CheckInvariants holds the overlay to its
// base. A clean overlay passes, and each corruption fails: a delta
// signature that is not its ad's word set's, a tombstone of a record the
// base does not hold, a deleted count off by one, and a tombstone whose ID
// the match filter would not look up.
func TestCheckInvariantsOverlay(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.Insert(NewAd(40, "pending overlay ad", Meta{}))
	if !ix.Delete(1, "used books") {
		t.Fatal("delete of base ad 1 found nothing")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	clean := ix.snap.Load()
	for _, tc := range []struct {
		name    string
		corrupt func(s *snapshot)
	}{
		{"stale delta signature", func(s *snapshot) { s.deltaSigs = []uint64{s.deltaSigs[0] ^ 1} }},
		{"signature without a delta ad", func(s *snapshot) { s.delta = nil }},
		{"tombstone of an absent record", func(s *snapshot) {
			s.tombs = map[tombKey]int{{id: 1, key: "books\x1fused"}: 1, {id: 2, key: "books\x1fused"}: 1}
			s.deleted = 2
		}},
		{"deleted off by one", func(s *snapshot) { s.deleted++ }},
		{"tombstone without its ID", func(s *snapshot) { s.tombIDs = nil }},
	} {
		s := &snapshot{base: clean.base, delta: clean.delta, deltaSigs: clean.deltaSigs,
			tombs: clean.tombs, tombIDs: clean.tombIDs, deleted: clean.deleted, epoch: clean.epoch}
		tc.corrupt(s)
		ix.snap.Store(s)
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// TestTombstonesCostOtherMatchesNothing: with deletes pending, View.Match
// builds a match's word-set key only when a tombstone has the match's ID,
// so a query none of whose matches is tombstoned allocates as much as it
// does with no delete pending. The filter used to build one key string per
// match while any tombstone was pending.
func TestTombstonesCostOtherMatchesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var ads []Ad
	for i := 1; i <= 200; i++ {
		ads = append(ads, NewAd(uint64(i), "used books", Meta{}))
	}
	ads = append(ads, NewAd(1000, "running shoes", Meta{}), NewAd(1001, "running shoes", Meta{}))
	plain, tombed := Build(ads, Options{}), Build(ads, Options{})
	if !tombed.Delete(1000, "running shoes") {
		t.Fatal("delete of base ad 1000 found nothing")
	}
	allocs := func(ix *Index) float64 {
		v := ix.View()
		q := Query{Text: "cheap used books"}
		dst := v.Match(nil, q).Ads
		if len(dst) != 200 {
			t.Fatalf("%d matches, want 200", len(dst))
		}
		return testing.AllocsPerRun(200, func() { dst = v.Match(dst[:0], q).Ads })
	}
	if a, b := allocs(plain), allocs(tombed); b != a {
		t.Errorf("View.Match: %.1f allocations with a tombstone on another ID pending, %.1f with none", b, a)
	}
	if got := idsOf(tombed.BroadMatch("running shoes")); !slices.Equal(got, []uint64{1001}) {
		t.Errorf("the tombstoned ID still filters: %v, want [1001]", got)
	}
}

// TestLongQueryAnswerSurvivesFold: a query of more than 12 words walks
// every indexed word of it, so its answer is what brute-force containment
// answers on the live corpus whether the writes are pending or folded.
// Twin indexes take the same writes; one folds them (an install of its
// live mapping), the other keeps them pending. When such a query was cut
// to its rarest words, the writes moved which words those were: the
// pending twin once matched 17 ads where the folded one matched 12.
func TestLongQueryAnswerSurvivesFold(t *testing.T) {
	words := strings.Fields("alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike november")
	var ads []Ad
	for i, w := range words[:12] { // df 1 each
		ads = append(ads, NewAd(uint64(i+1), w, Meta{}))
	}
	ads = append(ads, NewAd(13, "mike", Meta{}), NewAd(14, "mike zulu", Meta{}), // df 2
		NewAd(15, "november", Meta{}), NewAd(16, "november zulu", Meta{}), NewAd(17, "november yankee", Meta{})) // df 3
	q := Query{Text: strings.Join(words, " ")}
	short := Query{Text: strings.Join(words[:12], " ")}
	for _, tc := range []struct {
		name   string
		writes func(ix *Index)
		want   []uint64
	}{
		{"delta", func(ix *Index) {
			for id := uint64(100); id < 105; id++ { // alpha and bravo become the commonest words
				ix.Insert(NewAd(id, "alpha bravo", Meta{}))
			}
		}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 100, 101, 102, 103, 104}},
		{"delta and tombstone", func(ix *Index) {
			for id := uint64(100); id < 105; id++ {
				ix.Insert(NewAd(id, "alpha bravo", Meta{}))
			}
			if !ix.Delete(3, "charlie") {
				t.Fatal("delete of base ad 3 found nothing")
			}
		}, []uint64{1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 100, 101, 102, 103, 104}},
	} {
		pending, folded := Build(ads, Options{}), Build(ads, Options{})
		tc.writes(pending)
		tc.writes(folded)
		if _, err := folded.install(folded.snap.Load().base.Mapping()); err != nil {
			t.Fatal(err)
		}
		if st := folded.Stats(); st.Overlay != 0 {
			t.Fatalf("%s: the install left %d overlay entries", tc.name, st.Overlay)
		}
		if st := pending.Stats(); st.Overlay == 0 {
			t.Fatalf("%s: the pending twin has no overlay", tc.name)
		}
		for _, ix := range []*Index{pending, folded} {
			for _, query := range []Query{q, short} {
				res := ix.Match(nil, query)
				want := bruteForce(ix.Ads(), Broad, query.Text)
				if got := idsOf(res.Ads); !slices.Equal(got, want) || res.Truncated {
					t.Errorf("%s, overlay %d: %q matched %v (truncated %v), brute force %v",
						tc.name, ix.Stats().Overlay, query.Text, got, res.Truncated, want)
				}
				if query.Text == q.Text && !slices.Equal(want, tc.want) {
					t.Errorf("%s: brute force answers the 14-word query %v, want %v", tc.name, want, tc.want)
				}
			}
		}
	}
}

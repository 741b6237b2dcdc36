package core

import (
	"reflect"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestAppendBroadMatchMatchesBroadMatch cross-checks the scratch-reusing
// append path against the allocating wrapper over a generated corpus and
// workload, including the counter accounting.
func TestAppendBroadMatchMatchesBroadMatch(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1200, Seed: 21})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 300, Seed: 22})
	ix := New(c.Ads, Options{})

	var sc Scratch
	var dst []*corpus.Ad
	for _, q := range wl.Queries {
		var cWant, cGot costmodel.Counters
		want := ix.BroadMatch(q.Words, &cWant)
		dst = ix.AppendBroadMatch(dst[:0], q.Words, &cGot, &sc)
		if len(want) != len(dst) {
			t.Fatalf("query %v: append path found %d, broad %d", q.Words, len(dst), len(want))
		}
		for i := range want {
			if want[i].ID != dst[i].ID || want[i].Phrase != dst[i].Phrase {
				t.Fatalf("query %v: result %d differs: %v vs %v", q.Words, i, want[i], dst[i])
			}
		}
		if !reflect.DeepEqual(cWant, cGot) {
			t.Fatalf("query %v: counters diverge:\n  broad  %+v\n  append %+v", q.Words, cWant, cGot)
		}
	}
}

// TestAppendBroadMatchZeroAlloc pins the hot-path allocation contract: a
// warmed Scratch plus a reused destination buffer performs no allocations
// per query.
func TestAppendBroadMatchZeroAlloc(t *testing.T) {
	ads := mustAds(
		"used books", "comic books", "cheap used books",
		"rare books", "used cars", "cheap cars",
	)
	ix := New(ads, Options{})
	query := textnorm.WordSet("cheap used books and cars today")

	var sc Scratch
	var dst []*corpus.Ad
	dst = ix.AppendBroadMatch(dst[:0], query, nil, &sc) // warm buffers
	if len(dst) == 0 {
		t.Fatal("warm-up query found nothing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst = ix.AppendBroadMatch(dst[:0], query, nil, &sc)
	})
	if allocs != 0 {
		t.Fatalf("AppendBroadMatch allocates %.1f objects/op with warm scratch, want 0", allocs)
	}
}

// TestScratchResetDropsReferences makes sure a Reset scratch retains no
// references into the index or the query (pooled scratches must not pin
// retired snapshots): the ads AppendBroadMatch copied out alias the
// index's arena and vocabulary.
func TestScratchResetDropsReferences(t *testing.T) {
	ix := New(mustAds("used books", "comic books"), Options{})
	var sc Scratch
	ix.AppendBroadMatch(nil, textnorm.WordSet("used comic books"), nil, &sc)
	phrase := ix.AppendPhraseRefs(nil, textnorm.Tokenize("used books"), textnorm.WordSet("used books"), nil, &sc, nil)
	if len(sc.ads) == 0 || len(sc.strs) == 0 || len(phrase) == 0 || cap(sc.toks) == 0 {
		t.Fatal("scratch never used")
	}
	sc.Reset()
	for _, ad := range sc.ads[:cap(sc.ads)] {
		if ad.Phrase != "" || ad.Words != nil {
			t.Fatal("Reset left an ad in the copy-out buffer")
		}
	}
	for _, buf := range [][]string{sc.strs[:cap(sc.strs)], sc.toks[:cap(sc.toks)], sc.q[:cap(sc.q)]} {
		for _, s := range buf {
			if s != "" {
				t.Fatal("Reset left a string in a buffer")
			}
		}
	}
	if len(sc.q) != 0 || len(sc.visited) != 0 || len(sc.refs) != 0 || len(sc.ads) != 0 {
		t.Fatal("Reset left non-zero lengths")
	}
}

// TestLookupCountsRecords covers the read-only record counter used by the
// tombstone overlay.
func TestLookupCountsRecords(t *testing.T) {
	ads := mustAds("used books", "comic books")
	ads = append(ads, corpus.NewAd(1, "used books", corpus.Meta{BidMicros: 5}))
	ix := New(ads, Options{})

	if got := ix.Lookup(1, "used books"); got != 2 {
		t.Fatalf("Lookup(1) = %d, want 2 (duplicate records)", got)
	}
	if got := ix.Lookup(2, "comic books"); got != 1 {
		t.Fatalf("Lookup(2) = %d, want 1", got)
	}
	if got := ix.Lookup(2, "used books"); got != 0 {
		t.Fatalf("Lookup with mismatched phrase = %d, want 0", got)
	}
	if got := ix.Lookup(99, "used books"); got != 0 {
		t.Fatalf("Lookup of unknown ID = %d, want 0", got)
	}
	if !ix.Delete(1, "used books") {
		t.Fatal("delete missed")
	}
	if got := ix.Lookup(1, "used books"); got != 1 {
		t.Fatalf("Lookup after delete = %d, want 1", got)
	}
}

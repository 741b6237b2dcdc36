package adindex

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
)

// settledOffHeap collects until the regions of every unreachable base are
// unmapped, and returns the mapped bytes left. A region's finalizer runs
// on its own goroutine after the collection that finds it, so the count is
// read until it holds still.
func settledOffHeap() int64 {
	prev := int64(-1)
	for i := 0; i < 200; i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		n := OffHeapBytes()
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// waitOffHeap collects until OffHeapBytes is want, and fails the test if
// it does not get there within two seconds.
func waitOffHeap(t *testing.T, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		runtime.GC()
		if got := OffHeapBytes(); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: OffHeapBytes = %d, want %d", what, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mappedBase returns ix's base and skips the test where a base's region
// is heap memory.
func mappedBase(t *testing.T, ix *Index) *core.Index {
	t.Helper()
	base := ix.snap.Load().base
	if base.MappedBytes() == 0 {
		t.Skip("index regions are heap memory on this platform")
	}
	return base
}

// TestRegionReleasedAfterFold: every fold maps a new base and retires the
// old one. Once the retired bases are collected, the mapped bytes are one
// base's, and none once the index itself is dropped.
func TestRegionReleasedAfterFold(t *testing.T) {
	before := settledOffHeap()
	ix := Build(corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 3}).Ads, Options{MaxDeltaAds: 8})
	mappedBase(t, ix)
	const folds = 12
	for i := 0; i < folds*9; i++ { // the ninth insert on an overlay of eight folds
		ix.Insert(NewAd(1<<40+uint64(i), fmt.Sprintf("region fold %d", i), Meta{}))
	}
	if got, _ := ix.FoldStats(); got != folds {
		t.Fatalf("%d folds, want %d", got, folds)
	}
	waitOffHeap(t, before+int64(mappedBase(t, ix).MappedBytes()), fmt.Sprintf("after %d folds", folds))
	runtime.KeepAlive(ix)
	waitOffHeap(t, before, "after the index is dropped")
}

// TestCopiedOutAdOutlivesBase: a copied-out ad's phrase and exclusions
// alias its base's text arena, which stays on the heap. They read
// unchanged after the base is folded away, collected and unmapped, and
// after the heap it freed has been reused.
func TestCopiedOutAdOutlivesBase(t *testing.T) {
	before := settledOffHeap()
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 500, Seed: 4}).Ads,
		NewAd(1<<41, "Red Running Shoes", Meta{BidMicros: 7, Exclusions: []string{"repair", "used laces"}}),
		NewAd(1<<41+1, "running shoes", Meta{BidMicros: 9, Exclusions: []string{"kids"}}))
	ix := Build(ads, Options{MaxDeltaAds: 1})
	first := mappedBase(t, ix)
	got := ix.BroadMatch("red running shoes sale")
	if len(got) != 2 {
		t.Fatalf("BroadMatch = %d ads, want 2", len(got))
	}
	type text struct {
		phrase     string
		exclusions []string
	}
	want := make([]text, len(got))
	for i, ad := range got {
		want[i] = text{strings.Clone(ad.Phrase), slices.Clone(ad.Meta.Exclusions)}
		for j := range want[i].exclusions {
			want[i].exclusions[j] = strings.Clone(want[i].exclusions[j])
		}
	}
	for i := 0; i < 6; i++ { // three folds
		ix.Insert(NewAd(1<<40+uint64(i), fmt.Sprintf("outlive %d", i), Meta{}))
	}
	if ix.snap.Load().base == first {
		t.Fatal("the base was not folded away")
	}
	first = nil
	waitOffHeap(t, before+int64(mappedBase(t, ix).MappedBytes()), "after the first base is retired")
	var junk [][]byte
	for i := 0; i < 2000; i++ {
		junk = append(junk, []byte(strings.Repeat("x", 64+i%512)))
	}
	runtime.KeepAlive(junk)
	for i, ad := range got {
		if ad.Phrase != want[i].phrase || !slices.Equal(ad.Meta.Exclusions, want[i].exclusions) {
			t.Errorf("ad %d reads %q %q after its base is gone, want %q %q",
				ad.ID, ad.Phrase, ad.Meta.Exclusions, want[i].phrase, want[i].exclusions)
		}
	}
	runtime.KeepAlive(ix)
}

// TestColumnsUnderChurn: a fold storm beside readers, with the collector
// running nearly all the time. Every fold retires a base whose region is
// unmapped once no reader holds it; a reader that touched a column of an
// unmapped base would fault, and one that saw another base's records
// would miss the ad it asked for.
func TestColumnsUnderChurn(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	ads := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 11}).Ads
	ix := Build(ads, Options{MaxDeltaAds: 4})
	writes := 600
	if testing.Short() {
		writes = 200
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i += 7 {
				ad := &ads[i%len(ads)]
				found := false
				for _, m := range ix.BroadMatch(ad.Phrase + " churn") {
					found = found || m.ID == ad.ID && m.Phrase == ad.Phrase
				}
				exact := ix.Match(nil, Query{Text: ad.Phrase, Type: Exact}).Ads
				if !found || !slices.ContainsFunc(exact, func(m Ad) bool { return m.ID == ad.ID }) {
					errs <- fmt.Errorf("reader %d: ad %d (%q) missing from its own queries", r, ad.ID, ad.Phrase)
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		ad := NewAd(1<<40+uint64(i), fmt.Sprintf("churn write %d", i%50), Meta{BidMicros: int64(i)})
		ix.Insert(ad)
		if i%3 == 0 {
			ix.Delete(ad.ID, ad.Phrase)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if folds, _ := ix.FoldStats(); folds < uint64(writes)/6 {
		t.Errorf("%d folds over %d writes, want a fold storm", folds, writes)
	}
}

// TestFrozenBaseNeverMutated: every base an index publishes is frozen —
// core refuses an Insert or a Delete into one with a panic — and inserts
// and deletes through the index, across many folds, never trip it: a fold
// builds the base with the triggering insert in it.
func TestFrozenBaseNeverMutated(t *testing.T) {
	ix := Build(sampleAds(), Options{MaxDeltaAds: 2})
	for i := 0; i < 60; i++ {
		id := 1<<40 + uint64(i)
		ix.Insert(NewAd(id, fmt.Sprintf("frozen phrase %d", i%9), Meta{}))
		if i%4 == 1 && !ix.Delete(id-1, fmt.Sprintf("frozen phrase %d", (i-1)%9)) {
			t.Fatalf("Delete of ad %d missed", id-1)
		}
	}
	if folds, _ := ix.FoldStats(); folds < 12 {
		t.Fatalf("%d folds, want at least 12", folds)
	}
	if got, want := ix.NumAds(), len(sampleAds())+60-15; got != want {
		t.Fatalf("NumAds = %d, want %d", got, want)
	}
	base := ix.snap.Load().base
	for name, mutate := range map[string]func(){
		"Insert": func() { base.Insert(NewAd(1, "used books", Meta{})) },
		"Delete": func() { base.Delete(1, "used books") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into a published base did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

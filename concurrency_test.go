package adindex

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestConcurrentStress hammers the lock-free snapshot path from many
// goroutines — BroadMatch (which samples), Insert, Delete, and Optimize all at
// once — checks a safety invariant on every in-flight result, and then
// verifies the settled index against a serially computed oracle. Run under
// -race (make check does) this is the proof that readers never see a torn
// snapshot.
func TestConcurrentStress(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 41})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 42})
	queries := make([]string, len(wl.Queries))
	for i, q := range wl.Queries {
		queries[i] = strings.Join(q.Words, " ")
	}

	ix := Build(c.Ads, Options{})

	// Mutators touch disjoint ID ranges, so the settled corpus is
	// independent of interleaving and a serial oracle can replay the plans.
	const mutators = 4
	iters := 400
	readers := 8
	if testing.Short() {
		iters = 80
		readers = 4
	}
	type op struct {
		insert bool
		ad     Ad
	}
	plans := make([][]op, mutators)
	for m := 0; m < mutators; m++ {
		base := uint64(1_000_000 * (m + 1))
		var plan []op
		for i := 0; i < iters; i++ {
			ad := NewAd(base+uint64(i), fmt.Sprintf("churn phrase %d %d", m, i%17), Meta{BidMicros: int64(i)})
			plan = append(plan, op{insert: true, ad: ad})
			if i%3 == 0 {
				// Delete an ad inserted a few steps earlier; early rounds
				// re-delete the fresh ad's twin wordset via the miss path.
				victim := ad
				if i >= 6 {
					victim = plan[len(plan)-7].ad
				}
				plan = append(plan, op{insert: false, ad: victim})
			}
		}
		plans[m] = plan
	}

	var stop atomic.Bool
	var wgMut, wgBg sync.WaitGroup
	readErrs := make(chan error, 16)

	for m := 0; m < mutators; m++ {
		wgMut.Add(1)
		go func(plan []op) {
			defer wgMut.Done()
			for _, o := range plan {
				if o.insert {
					ix.Insert(o.ad)
				} else {
					ix.Delete(o.ad.ID, o.ad.Phrase)
				}
			}
		}(plans[m])
	}

	wgBg.Add(1)
	go func() {
		defer wgBg.Done()
		for !stop.Load() {
			if _, err := ix.Optimize(); err != nil {
				readErrs <- fmt.Errorf("Optimize: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wgBg.Add(1)
		go func(seed int) {
			defer wgBg.Done()
			var dst []Ad
			for i := 0; !stop.Load(); i++ {
				q := queries[(i*7+seed)%len(queries)]
				dst = ix.View().BroadMatchAppend(dst[:0], q)
				// Safety invariant that holds at every instant, churn or
				// not: each returned ad's word set is a subset of the
				// query's.
				qset := textnorm.WordSet(q)
				for _, ad := range dst {
					if !textnorm.IsSubset(ad.Words, qset) {
						readErrs <- fmt.Errorf("match %d words %v not a subset of query %q", ad.ID, ad.Words, q)
						return
					}
				}
				_ = ix.Epoch()
			}
		}(r)
	}

	wgMut.Wait()
	stop.Store(true)
	wgBg.Wait()
	select {
	case err := <-readErrs:
		t.Fatal(err)
	default:
	}

	// Serial oracle: the same corpus and plans applied to a fresh index on
	// one goroutine.
	oracle := Build(c.Ads, Options{})
	for _, plan := range plans {
		for _, o := range plan {
			if o.insert {
				oracle.Insert(o.ad)
			} else {
				oracle.Delete(o.ad.ID, o.ad.Phrase)
			}
		}
	}
	if got, want := ix.NumAds(), oracle.NumAds(); got != want {
		t.Fatalf("settled NumAds = %d, oracle = %d", got, want)
	}
	for _, q := range queries {
		got := idsOf(ix.BroadMatch(q))
		want := idsOf(oracle.BroadMatch(q))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("settled BroadMatch(%q) = %v, oracle = %v", q, got, want)
		}
	}
	// And the churn phrases themselves resolve identically.
	for m := 0; m < mutators; m++ {
		for i := 0; i < 17; i++ {
			q := fmt.Sprintf("some churn phrase %d %d here", m, i)
			got := idsOf(ix.BroadMatch(q))
			want := idsOf(oracle.BroadMatch(q))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("settled BroadMatch(%q) = %v, oracle = %v", q, got, want)
			}
		}
	}
}

// TestReadsProceedWhileWriterLocked proves the read path never waits on
// the writer mutex: queries complete while it is held for the whole test.
func TestReadsProceedWhileWriterLocked(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.mu.Lock()
	defer ix.mu.Unlock()

	done := make(chan []uint64, 1)
	go func() {
		done <- idsOf(ix.BroadMatch("cheap used books today"))
	}()
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, []uint64{1, 3, 4}) {
			t.Fatalf("BroadMatch under held writer lock = %v, want [1 3 4]", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BroadMatch blocked on the writer mutex; the read path waits on writers")
	}
	// Epoch and View are reads too.
	viewDone := make(chan uint64, 1)
	go func() { viewDone <- ix.View().Epoch() }()
	select {
	case <-viewDone:
	case <-time.After(2 * time.Second):
		t.Fatal("View blocked on the writer mutex")
	}
}

// TestViewConsistency pins a View across a mutation and checks it keeps
// answering from its snapshot while the index moves on — the contract the
// server cache's epoch tagging is built on.
func TestViewConsistency(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	v := ix.View()
	e := v.Epoch()

	ix.Insert(NewAd(99, "used books bargain", Meta{}))
	if ix.Epoch() <= e {
		t.Fatal("index epoch did not advance")
	}
	if v.Epoch() != e {
		t.Fatal("view epoch moved after a mutation")
	}
	if got := idsOf(v.BroadMatch("used books bargain sale")); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("pinned view sees new ad: %v", got)
	}
	if got := idsOf(ix.BroadMatch("used books bargain sale")); !reflect.DeepEqual(got, []uint64{1, 4, 99}) {
		t.Fatalf("live index missing new ad: %v", got)
	}
}

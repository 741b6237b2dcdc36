package adindex

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

func observeQuery(ix *Index, q *workload.Query) {
	ix.Observe(strings.Join(q.Words, " "))
}

// TestExportDeltaDrains: a drain returns exactly the traffic since the
// previous drain, with a monotonically increasing epoch, and never
// disturbs the long-lived sample used by Optimize.
func TestExportDeltaDrains(t *testing.T) {
	ix := New(Options{})
	for i := 0; i < 10; i++ {
		ix.Observe("red shoes")
	}
	ix.Observe("blue hat")

	wl, epoch := ix.ExportDelta()
	if epoch != 1 {
		t.Fatalf("first drain epoch %d, want 1", epoch)
	}
	freqs := map[string]int{}
	for i := range wl.Queries {
		freqs[strings.Join(wl.Queries[i].Words, " ")] = wl.Queries[i].Freq
	}
	if freqs["red shoes"] != 10 || freqs["blue hat"] != 1 || len(freqs) != 2 {
		t.Fatalf("bad delta: %v", freqs)
	}

	// Second drain with no traffic in between: empty, epoch advances.
	wl, epoch = ix.ExportDelta()
	if len(wl.Queries) != 0 || epoch != 2 {
		t.Fatalf("idle drain: %d queries, epoch %d", len(wl.Queries), epoch)
	}

	// New traffic lands in the next delta only; the full sample still
	// holds everything.
	ix.Observe("red shoes")
	wl, _ = ix.ExportDelta()
	if len(wl.Queries) != 1 || wl.Queries[0].Freq != 1 {
		t.Fatalf("post-drain delta should hold only new traffic: %+v", wl.Queries)
	}
	if ix.ObservedQueries() != 2 {
		t.Fatalf("long-lived sample disturbed: %d distinct", ix.ObservedQueries())
	}
}

// TestExportDeltaConcurrent hammers Observe from many goroutines while
// another drains deltas; run under -race this is the data-race proof,
// and the summed drains must conserve every observation.
func TestExportDeltaConcurrent(t *testing.T) {
	ix := New(Options{})
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				ix.Observe(fmt.Sprintf("word%d common", i%50))
			}
		}(w)
	}
	done := make(chan struct{})
	total := 0
	go func() {
		defer close(done)
		for !wlDone(&wg) {
			wl, _ := ix.ExportDelta()
			for i := range wl.Queries {
				total += wl.Queries[i].Freq
			}
		}
	}()
	wg.Wait()
	<-done
	// Final drain picks up anything the racing drains missed.
	wl, _ := ix.ExportDelta()
	for i := range wl.Queries {
		total += wl.Queries[i].Freq
	}
	if want := writers * perW; total != want {
		t.Fatalf("drained %d observations, want %d", total, want)
	}
}

// wlDone reports whether the WaitGroup has drained without blocking
// forever (poll-style: Wait in a goroutine with a signal).
func wlDone(wg *sync.WaitGroup) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestExportDeltaEvictionDuringExport: shard eviction (tiny sample cap)
// during in-flight export traffic must never lose pending counts to the
// long-lived map's eviction, and drains stay bounded.
func TestExportDeltaEvictionDuringExport(t *testing.T) {
	// Cap of 16 → shardCap 1: every new distinct key evicts.
	ix := New(Options{MaxObservedQueries: 16})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				ix.Observe(fmt.Sprintf("k%d w%d", w, i%200))
			}
		}(w)
	}
	drains := 0
	for !wlDone(&wg) {
		wl, _ := ix.ExportDelta()
		// Pending buffers are bounded at 2× the shard cap; a drain can
		// never exceed shards × 2 × shardCap distinct sets.
		if len(wl.Queries) > 16*2*1 {
			t.Fatalf("drain returned %d sets, pending unbounded", len(wl.Queries))
		}
		drains++
	}
	wg.Wait()
	if drains == 0 {
		t.Fatal("no concurrent drains happened")
	}
}

// adaptTestIndex builds an index with live traffic observed and drained
// fully into the adaptation controller's view.
func adaptTestIndex(t *testing.T, adsSeed, wlSeed int64) (*Index, *workload.Workload) {
	t.Helper()
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: adsSeed})
	ix := Build(c.Ads, Options{Adapt: &AdaptOptions{TopK: 64}})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 500, Seed: wlSeed})
	for i := range wl.Queries {
		for f := 0; f < wl.Queries[i].Freq%4+1; f++ {
			observeQuery(ix, &wl.Queries[i])
		}
	}
	return ix, wl
}

// TestAdaptRoundImprovesAndPreservesResults: rounds driven by observed
// traffic must lower (never raise) the modeled cost, preserve query
// results exactly, and keep the index invariants.
func TestAdaptRoundImprovesAndPreservesResults(t *testing.T) {
	ix, wl := adaptTestIndex(t, 81, 82)
	type expect struct {
		q   string
		ids []uint64
	}
	var expects []expect
	for i := 0; i < len(wl.Queries); i += 9 {
		q := strings.Join(wl.Queries[i].Words, " ")
		expects = append(expects, expect{q: q, ids: idsOf(ix.BroadMatch(q))})
	}

	applied, totalMoved := 0, 0
	var firstBefore, lastAfter float64
	for round := 0; round < 20; round++ {
		rep, err := ix.AdaptRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.CostAfter > rep.CostBefore {
			t.Fatalf("round %d raised modeled cost %.1f -> %.1f", round, rep.CostBefore, rep.CostAfter)
		}
		if rep.Applied {
			applied++
			totalMoved += rep.Moved
		}
		if round == 0 {
			firstBefore = rep.CostBefore
		}
		lastAfter = rep.CostAfter
		// Re-observe some traffic so later rounds have deltas.
		for i := 0; i < len(wl.Queries); i += 3 {
			observeQuery(ix, &wl.Queries[i])
		}
	}
	if applied == 0 || totalMoved == 0 {
		t.Fatalf("adaptation never applied a move (applied=%d moved=%d)", applied, totalMoved)
	}
	if lastAfter > firstBefore {
		t.Fatalf("modeled cost trend worsened: %.1f -> %.1f", firstBefore, lastAfter)
	}
	for _, e := range expects {
		if got := idsOf(ix.BroadMatch(e.q)); !reflect.DeepEqual(got, e.ids) {
			t.Fatalf("query %q changed results after adaptation: %v vs %v", e.q, got, e.ids)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := ix.AdaptStatus()
	if st.Rounds != 20 || st.Applied != int64(applied) || st.Moves != int64(totalMoved) {
		t.Fatalf("status out of sync: %+v (applied=%d moved=%d)", st, applied, totalMoved)
	}
}

// TestApplyPlacementStaleEpochSkipped is the regression test for the
// stale-round guard: a placement planned against an old remap epoch must
// be skipped once any other re-mapping (here a full Optimize) lands.
func TestApplyPlacementStaleEpochSkipped(t *testing.T) {
	ix, _ := adaptTestIndex(t, 91, 92)

	// Plan against the current view…
	_, mapping, epoch := adaptTarget{ix}.PlacementView()

	// …then let a competing full Optimize re-map first.
	if rep, err := ix.Optimize(); err != nil || !rep.Applied {
		t.Fatalf("optimize: %+v err=%v", rep, err)
	}
	if ix.RemapEpoch() == epoch {
		t.Fatal("Optimize did not bump the remap epoch")
	}

	applied, err := ix.ApplyPlacement(mapping, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("stale placement applied over a newer re-mapping")
	}

	// With the current epoch the same mapping applies fine.
	applied, err = ix.ApplyPlacement(mapping, ix.RemapEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("fresh-epoch placement should apply")
	}
}

// TestAdaptRoundSkipsWithoutTraffic: no observed traffic → no evidence →
// no moves, reported as SkippedNoGain.
func TestAdaptRoundSkipsWithoutTraffic(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	rep, err := ix.AdaptRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied || !rep.SkippedNoGain || rep.Moved != 0 {
		t.Fatalf("idle round should skip: %+v", rep)
	}
}

// TestAdaptConcurrentWithQueriesAndChurn runs adapt rounds while queries
// and mutations hammer the index; under -race this exercises the RCU
// apply path, and results stay correct throughout.
func TestAdaptConcurrentWithQueriesAndChurn(t *testing.T) {
	ix, wl := adaptTestIndex(t, 101, 102)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := &wl.Queries[(i*7+r)%len(wl.Queries)]
				observeQuery(ix, q)
				ix.BroadMatch(strings.Join(q.Words, " "))
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := uint64(1_000_000 + i)
			ix.Insert(NewAd(id, fmt.Sprintf("churn phrase %d", i%37), Meta{}))
			ix.Delete(id, fmt.Sprintf("churn phrase %d", i%37))
		}
	}()
	for round := 0; round < 8; round++ {
		if _, err := ix.AdaptRound(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStartStopAdapt: lifecycle sanity — the background loop starts,
// stops cleanly, and Stop without Start is a no-op.
func TestStartStopAdapt(t *testing.T) {
	ix := Build(sampleAds(), Options{Adapt: &AdaptOptions{Interval: 1e6}}) // 1ms
	ix.StartAdapt()
	ix.Observe("used books")
	ix.StopAdapt()
	ix2 := New(Options{})
	ix2.StopAdapt() // never started: must not hang or panic
}

// TestRecordQueryCostAttribution: the serving-path hook accumulates into
// the attribution the adaptation loop recalibrates from.
func TestRecordQueryCostAttribution(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	var c Counters
	ix.Match(nil, Query{Text: "cheap used books today", Counters: &c})
	ix.RecordQueryCost(&c, 1234)
	s := ix.AttributionStats()
	if s.Queries != 1 || s.Nanos != 1234 || s.BytesScanned != c.BytesScanned {
		t.Fatalf("attribution not recorded: %+v (counters %+v)", s, c)
	}
}

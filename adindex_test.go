package adindex

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

func sampleAds() []Ad {
	return []Ad{
		NewAd(1, "used books", Meta{BidMicros: 250000, ClickRate: 100}),
		NewAd(2, "comic books", Meta{BidMicros: 310000, ClickRate: 50}),
		NewAd(3, "cheap used books", Meta{BidMicros: 150000, ClickRate: 400}),
		NewAd(4, "used books", Meta{BidMicros: 90000, Exclusions: []string{"free"}}),
	}
}

func idsOf(ads []Ad) []uint64 {
	out := make([]uint64, len(ads))
	for i := range ads {
		out[i] = ads[i].ID
	}
	return out
}

func TestBuildAndBroadMatch(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	got := idsOf(ix.BroadMatch("cheap used books today"))
	if !reflect.DeepEqual(got, []uint64{1, 3, 4}) {
		t.Errorf("BroadMatch = %v, want [1 3 4]", got)
	}
	if got := ix.BroadMatch("books"); got != nil {
		t.Errorf("'books' matched %v", idsOf(got))
	}
	if got := ix.BroadMatch(""); got != nil {
		t.Errorf("empty query matched %v", idsOf(got))
	}
}

func TestExactAndPhraseMatch(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	if got := idsOf(ix.Match(nil, Query{Text: "used books", Type: Exact}).Ads); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Errorf("exact match = %v", got)
	}
	if got := idsOf(ix.Match(nil, Query{Text: "buy used books now", Type: Phrase}).Ads); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Errorf("phrase match = %v", got)
	}
	if got := ix.Match(nil, Query{Text: "books used cars", Type: Phrase}).Ads; len(got) != 0 {
		t.Errorf("out-of-order phrase matched %v", idsOf(got))
	}
}

func TestInsertDelete(t *testing.T) {
	ix := New(Options{})
	ix.Insert(NewAd(10, "red shoes", Meta{}))
	ix.Insert(NewAd(11, "red shoes sale", Meta{}))
	if got := idsOf(ix.BroadMatch("red shoes sale today")); !reflect.DeepEqual(got, []uint64{10, 11}) {
		t.Fatalf("got %v", got)
	}
	if !ix.Delete(10, "red shoes") {
		t.Fatal("delete failed")
	}
	if got := idsOf(ix.BroadMatch("red shoes sale today")); !reflect.DeepEqual(got, []uint64{11}) {
		t.Fatalf("after delete: %v", got)
	}
	if ix.Delete(10, "red shoes") {
		t.Fatal("double delete succeeded")
	}
}

func TestMatchesAreCopies(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	m := ix.BroadMatch("used books")
	m[0].Phrase = "CLOBBERED"
	m2 := ix.BroadMatch("used books")
	if m2[0].Phrase == "CLOBBERED" {
		t.Fatal("BroadMatch exposes internal storage")
	}
}

func TestObserveAndOptimize(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 71})
	ix := Build(c.Ads, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 800, Seed: 72})
	// Feed the stream as observations, and remember expected results.
	type expect struct {
		q   string
		ids []uint64
	}
	var expects []expect
	for i := range wl.Queries {
		q := ""
		for j, w := range wl.Queries[i].Words {
			if j > 0 {
				q += " "
			}
			q += w
		}
		for f := 0; f < wl.Queries[i].Freq%5+1; f++ {
			ix.BroadMatch(q)
		}
		if i%10 == 0 {
			expects = append(expects, expect{q: q, ids: idsOf(ix.BroadMatch(q))})
		}
	}
	if ix.ObservedQueries() != len(wl.Queries) {
		t.Fatalf("observed %d, want %d", ix.ObservedQueries(), len(wl.Queries))
	}
	// Optimize prices plans under the paper's model, costmodel.Default().
	gs := optimize.BuildGroups(c.Ads, ix.observed.Workload())
	base := ix.foldedBase()
	priced := func(m costmodel.Model) float64 {
		cost, _ := optimize.EvaluateLocator(gs, base.Locator, optimize.Options{Model: m})
		return cost
	}
	want, other := priced(costmodel.Default()), priced(costmodel.Model{Random: 64, ScanByte: 1})
	before := ix.Stats()
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if got := report.ModeledCostBefore; math.Abs(got-want) > 1e-9*want || want == other {
		t.Errorf("ModeledCostBefore = %g, want %g under costmodel.Default() (%g under another model)", got, want, other)
	}
	after := ix.Stats()
	if report.NodesAfter >= report.NodesBefore {
		t.Errorf("optimization should merge nodes: %d -> %d", report.NodesBefore, report.NodesAfter)
	}
	if report.ModeledCostAfter > report.ModeledCostBefore {
		t.Errorf("modeled cost rose: %.0f -> %.0f", report.ModeledCostBefore, report.ModeledCostAfter)
	}
	if after.NumAds != before.NumAds {
		t.Errorf("ads lost: %d -> %d", before.NumAds, after.NumAds)
	}
	// Results must be unchanged by re-mapping.
	for _, e := range expects {
		if got := idsOf(ix.BroadMatch(e.q)); !reflect.DeepEqual(got, e.ids) {
			t.Fatalf("query %q changed results after Optimize: %v vs %v", e.q, got, e.ids)
		}
	}
}

func TestOptimizeEmptyWorkload(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if report.DistinctQueries != 0 {
		t.Errorf("DistinctQueries = %d", report.DistinctQueries)
	}
	if got := idsOf(ix.BroadMatch("cheap used books")); !reflect.DeepEqual(got, []uint64{1, 3, 4}) {
		t.Errorf("results after no-op optimize: %v", got)
	}
}

func TestSelectAds(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	matches := ix.BroadMatch("cheap used books free shipping")
	// Ad 4 excludes "free"; ads ranked by bid.
	sel := SelectAds("cheap used books free shipping", matches, Selection{})
	if !reflect.DeepEqual(idsOf(sel), []uint64{1, 3}) {
		t.Errorf("SelectAds = %v, want [1 3]", idsOf(sel))
	}
	// Bid floor.
	sel = SelectAds("cheap used books", matches, Selection{MinBidMicros: 200000})
	if !reflect.DeepEqual(idsOf(sel), []uint64{1}) {
		t.Errorf("bid floor: %v", idsOf(sel))
	}
	// Expected-revenue ranking: ad 3 (150000*400) beats ad 1 (250000*100).
	matches = ix.BroadMatch("cheap used books")
	sel = SelectAds("cheap used books", matches, Selection{RankByExpectedRevenue: true, MaxResults: 1})
	if !reflect.DeepEqual(idsOf(sel), []uint64{3}) {
		t.Errorf("revenue ranking: %v", idsOf(sel))
	}
	// Shown-ad suppression.
	sel = SelectAds("used books", ix.BroadMatch("used books"),
		Selection{ExcludeShown: map[uint64]bool{1: true}})
	if !reflect.DeepEqual(idsOf(sel), []uint64{4}) {
		t.Errorf("shown suppression: %v", idsOf(sel))
	}
}

func TestSnapshot(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 73})
	ix := Build(c.Ads, Options{})
	snap := compressedSnapshot(t, ix, 0)
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 150, Seed: 74})
	for i := range wl.Queries {
		q := ""
		for j, w := range wl.Queries[i].Words {
			if j > 0 {
				q += " "
			}
			q += w
		}
		want := idsOf(ix.BroadMatch(q))
		got, err := snap.BroadMatchText(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(idsOf(got), want) {
			t.Fatalf("snapshot disagrees on %q: %v vs %v", q, idsOf(got), want)
		}
	}
	sizes := snap.Sizes()
	if sizes.Nodes == 0 || sizes.ArenaBytes == 0 || sizes.SuffixBits == 0 {
		t.Errorf("sizes degenerate: %+v", sizes)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					ix.BroadMatch("cheap used books")
				case 1:
					ix.BroadMatch("used books")
				case 2:
					id := uint64(1000 + w*1000 + i)
					ix.Insert(NewAd(id, fmt.Sprintf("thing %d", w), Meta{}))
					ix.Delete(id, fmt.Sprintf("thing %d", w))
				case 3:
					ix.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := idsOf(ix.BroadMatch("cheap used books")); !reflect.DeepEqual(got, []uint64{1, 3, 4}) {
		t.Errorf("post-race results: %v", got)
	}
}

func TestCountersExposed(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	var c Counters
	ix.Match(nil, Query{Text: "cheap used books", Counters: &c})
	if c.Queries != 1 || c.HashProbes == 0 {
		t.Errorf("counters: %+v", c)
	}
}

func ExampleBuild() {
	ix := Build([]Ad{
		NewAd(1, "used books", Meta{BidMicros: 250000}),
		NewAd(2, "comic books", Meta{BidMicros: 310000}),
	}, Options{})
	for _, ad := range ix.BroadMatch("cheap used books") {
		fmt.Println(ad.Phrase)
	}
	// Output: used books
}

func ExampleSelectAds() {
	ix := Build([]Ad{
		NewAd(1, "running shoes", Meta{BidMicros: 500000}),
		NewAd(2, "shoes", Meta{BidMicros: 900000, Exclusions: []string{"repair"}}),
	}, Options{})
	query := "running shoes repair"
	winners := SelectAds(query, ix.BroadMatch(query), Selection{MaxResults: 1})
	fmt.Println(winners[0].Phrase)
	// Output: running shoes
}

// Optimize runs concurrently with inserts/deletes without losing any
// mutation (the epoch-swap path).
func TestOptimizeConcurrentWithChurn(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 75})
	ix := Build(c.Ads, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 400, Seed: 76})
	for i := range wl.Queries {
		q := ""
		for j, w := range wl.Queries[i].Words {
			if j > 0 {
				q += " "
			}
			q += w
		}
		ix.BroadMatch(q)
	}
	done := make(chan struct{})
	const churn = 300
	go func() {
		defer close(done)
		for i := 0; i < churn; i++ {
			id := uint64(100000 + i)
			ix.Insert(NewAd(id, fmt.Sprintf("churn phrase %d", i), Meta{}))
			if i%2 == 0 {
				ix.Delete(id, fmt.Sprintf("churn phrase %d", i))
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := ix.Optimize(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if _, err := ix.Optimize(); err != nil {
		t.Fatal(err)
	}
	// All odd-numbered churn ads must have survived.
	want := 3000 + churn/2
	if got := ix.Stats().NumAds; got != want {
		t.Fatalf("NumAds = %d, want %d (mutations lost during optimize)", got, want)
	}
	for i := 1; i < churn; i += 2 {
		q := fmt.Sprintf("churn phrase %d today", i)
		if got := ix.BroadMatch(q); len(got) != 1 {
			t.Fatalf("churn ad %d lost: %v", i, idsOf(got))
		}
	}
}

func TestEpochAdvancesOnMutation(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	e0 := ix.Epoch()
	ix.Insert(NewAd(50, "new phrase", Meta{}))
	if ix.Epoch() <= e0 {
		t.Fatal("Insert did not advance the epoch")
	}
	e1 := ix.Epoch()
	ix.Delete(50, "new phrase")
	if ix.Epoch() <= e1 {
		t.Fatal("Delete did not advance the epoch")
	}
	e2 := ix.Epoch()
	ix.BroadMatch("used books")
	if _, err := ix.Optimize(); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() <= e2 {
		t.Fatal("Optimize did not advance the epoch")
	}
}

func TestObserveCapBoundsMemory(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.observed = newObserveSampler(100)
	// The hot query is seen often, so its frequency dwarfs the tail's.
	for i := 0; i < 50; i++ {
		ix.BroadMatch("used books")
	}
	// A long tail of one-off queries flows past the cap.
	for i := 0; i < 1000; i++ {
		ix.BroadMatch(fmt.Sprintf("rare query number %d", i))
	}
	if got := ix.ObservedQueries(); got > 100 {
		t.Fatalf("observed sample grew to %d, cap is 100", got)
	}
	// The high-frequency head must keep its slot while the tail takes turns
	// at the least counted ones.
	hot := false
	for _, q := range ix.observed.Workload().Queries {
		hot = hot || slices.Contains(q.Words, "books")
	}
	if !hot {
		t.Error("hot query evicted despite its frequency")
	}
}

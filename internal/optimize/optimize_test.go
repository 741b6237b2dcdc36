package optimize

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

func mustAds(phrases ...string) []corpus.Ad {
	ads := make([]corpus.Ad, len(phrases))
	for i, p := range phrases {
		ads[i] = corpus.NewAd(uint64(i+1), p, corpus.Meta{})
	}
	return ads
}

func wlOf(entries ...struct {
	q string
	f int
}) *workload.Workload {
	wl := &workload.Workload{}
	for _, e := range entries {
		wl.Queries = append(wl.Queries, workload.Query{Words: textnorm.WordSet(e.q), Freq: e.f})
	}
	return wl
}

func qf(q string, f int) struct {
	q string
	f int
} {
	return struct {
		q string
		f int
	}{q, f}
}

func TestBuildGroups(t *testing.T) {
	ads := mustAds("cheap books", "books cheap", "used cars", "cheap used books")
	wl := wlOf(qf("cheap used books", 10), qf("used cars now", 3))
	gs := BuildGroups(ads, wl)
	if len(gs.All) != 3 {
		t.Fatalf("groups = %d, want 3", len(gs.All))
	}
	gi, ok := gs.ByKey[textnorm.SetKey([]string{"books", "cheap"})]
	if !ok {
		t.Fatal("missing group for {books, cheap}")
	}
	g := &gs.All[gi]
	if g.Count != 2 {
		t.Errorf("group count = %d, want 2", g.Count)
	}
	// {books,cheap} ⊆ "cheap used books" (len 3, freq 10) only.
	if got := g.FreqTotal(); got != 10 {
		t.Errorf("FreqTotal = %d, want 10", got)
	}
	if got := g.FreqAtLeast(3); got != 10 {
		t.Errorf("FreqAtLeast(3) = %d, want 10", got)
	}
	if got := g.FreqAtLeast(4); got != 0 {
		t.Errorf("FreqAtLeast(4) = %d, want 0", got)
	}
	// Ancestor relation: {books,cheap,used} has ancestor {books,cheap}.
	bigIdx := gs.ByKey[textnorm.SetKey([]string{"books", "cheap", "used"})]
	anc := gs.Ancestors[bigIdx]
	wantAnc := []int{gi, bigIdx}
	if gi > bigIdx {
		wantAnc = []int{bigIdx, gi}
	}
	if !reflect.DeepEqual(anc, wantAnc) {
		t.Errorf("ancestors = %v, want %v", anc, wantAnc)
	}
}

func TestDescendantsInvertAncestors(t *testing.T) {
	ads := mustAds("a", "a b", "a b c", "x y")
	gs := BuildGroups(ads, nil)
	desc := gs.Descendants()
	for l := range gs.All {
		for _, g := range desc[l] {
			found := false
			for _, a := range gs.Ancestors[g] {
				if a == l {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("desc[%d] contains %d but ancestors[%d] misses %d", l, g, g, l)
			}
		}
	}
}

func TestIdentityMapping(t *testing.T) {
	ads := mustAds("a b", "c d", "a b c d e f g h i j k l")
	gs := BuildGroups(ads, nil)
	res := IdentityMapping(gs, Options{MaxWords: 5})
	for key, loc := range res.Mapping {
		words := textnorm.SplitKey(key)
		if len(words) <= 5 {
			if !slices.Equal(loc, words) {
				t.Errorf("short set %v mapped to %v", words, loc)
			}
		} else if len(loc) > 5 {
			t.Errorf("long set got long locator %v", loc)
		}
	}
	if res.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", res.Nodes)
	}
}

func TestLongPhraseMappingPrefersFrequentAncestor(t *testing.T) {
	ads := mustAds(
		"alpha beta",                          // ancestor A (frequent)
		"gamma delta",                         // ancestor B (rare)
		"alpha beta gamma delta epsilon zeta", // long: must pick A
	)
	wl := wlOf(
		qf("alpha beta query here", 100),
		qf("gamma delta", 1),
	)
	gs := BuildGroups(ads, wl)
	res := LongPhraseMapping(gs, Options{MaxWords: 4})
	longKey := ads[2].SetKey()
	loc := res.Mapping[longKey]
	if !slices.Equal(loc, []string{"alpha", "beta"}) {
		t.Errorf("long phrase mapped to %v, want [alpha beta]", loc)
	}
	// Short groups untouched.
	if !slices.Equal(res.Mapping[ads[0].SetKey()], ads[0].Words) {
		t.Errorf("short group remapped: %v", res.Mapping[ads[0].SetKey()])
	}
}

func TestLongPhraseMappingFallback(t *testing.T) {
	ads := mustAds("one two three four five six")
	gs := BuildGroups(ads, nil)
	res := LongPhraseMapping(gs, Options{MaxWords: 3})
	loc := res.Mapping[ads[0].SetKey()]
	if len(loc) > 3 {
		t.Errorf("fallback locator too long: %v", loc)
	}
	if !textnorm.IsSubset(loc, ads[0].Words) {
		t.Errorf("fallback locator %v not a subset", loc)
	}
}

// validateMapping checks the structural mapping conditions of Section V-A.
func validateMapping(t *testing.T, gs *Groups, res *Result, maxWords int) {
	t.Helper()
	for key, loc := range res.Mapping {
		words := textnorm.SplitKey(key)
		if len(loc) == 0 {
			t.Fatalf("empty locator for %v", words)
		}
		if len(loc) > maxWords {
			t.Fatalf("locator %v exceeds max words %d", loc, maxWords)
		}
		if !textnorm.IsSubset(loc, words) {
			t.Fatalf("locator %v not subset of %v", loc, words)
		}
	}
	if len(res.Mapping) != len(gs.All) {
		t.Fatalf("mapping covers %d groups, want %d", len(res.Mapping), len(gs.All))
	}
}

func TestOptimizeCoAccessedMerge(t *testing.T) {
	// Two sets always co-accessed by the dominant query: merging them
	// saves one random access per query, so the optimizer must co-locate
	// them. A third, independently accessed set must stay separate.
	ads := mustAds("cheap books", "cheap used books", "garden hose")
	wl := wlOf(
		qf("cheap used books", 1000), // accesses both book nodes
		qf("garden hose", 500),
	)
	gs := BuildGroups(ads, wl)
	res := Optimize(gs, Options{MaxWords: 10})
	validateMapping(t, gs, res, 10)

	locBooks := textnorm.SetKey(res.Mapping[ads[0].SetKey()])
	locUsed := textnorm.SetKey(res.Mapping[ads[1].SetKey()])
	locHose := textnorm.SetKey(res.Mapping[ads[2].SetKey()])
	if locBooks != locUsed {
		t.Errorf("co-accessed sets not merged: %q vs %q", locBooks, locUsed)
	}
	if locHose == locBooks {
		t.Errorf("independent set merged with books node")
	}
}

func TestOptimizeKeepsRarelyCoAccessedApart(t *testing.T) {
	// {a} is reached by a huge volume of *long* queries ("a x y"), while
	// {a,b} is rarely queried and carries a big payload. Because the hot
	// queries have length >= 2, merging {a,b} into {a}'s node would force
	// them all to scan b's bytes (no early-termination protection), so
	// the optimizer must keep the sets apart.
	big := corpus.Meta{Exclusions: []string{"padpadpadpadpadpadpadpadpadpadpadpadpadpad"}}
	ads := []corpus.Ad{
		corpus.NewAd(1, "a", corpus.Meta{}),
		corpus.NewAd(2, "a b", big),
	}
	wl := wlOf(qf("a x y", 100000), qf("a b", 1))
	gs := BuildGroups(ads, wl)
	res := Optimize(gs, Options{MaxWords: 10, Model: costmodel.Model{Random: 64, ScanByte: 1}})
	validateMapping(t, gs, res, 10)
	locA := textnorm.SetKey(res.Mapping[ads[0].SetKey()])
	locAB := textnorm.SetKey(res.Mapping[ads[1].SetKey()])
	if locA == locAB {
		t.Errorf("rarely co-accessed big set was merged into hot node")
	}
}

func TestOptimizeMergesBehindEarlyTermination(t *testing.T) {
	// Converse of the keep-apart case: when the hot queries are SHORTER
	// than the big member, word-count ordering shields them from its
	// bytes, so merging saves the rare query's random access for free.
	big := corpus.Meta{Exclusions: []string{"padpadpadpadpadpadpadpadpadpadpadpadpadpad"}}
	ads := []corpus.Ad{
		corpus.NewAd(1, "a", corpus.Meta{}),
		corpus.NewAd(2, "a b", big),
	}
	wl := wlOf(qf("a", 100000), qf("a b", 1))
	gs := BuildGroups(ads, wl)
	res := Optimize(gs, Options{MaxWords: 10, Model: costmodel.Model{Random: 64, ScanByte: 1}})
	validateMapping(t, gs, res, 10)
	locA := textnorm.SetKey(res.Mapping[ads[0].SetKey()])
	locAB := textnorm.SetKey(res.Mapping[ads[1].SetKey()])
	if locA != locAB {
		t.Errorf("early-termination-protected merge did not happen: %q vs %q", locA, locAB)
	}
}

func TestOptimizeNoWorkloadFallsBackToIdentity(t *testing.T) {
	ads := mustAds("a b", "c d")
	gs := BuildGroups(ads, nil)
	res := Optimize(gs, Options{})
	id := IdentityMapping(gs, Options{})
	if !reflect.DeepEqual(res.Mapping, id.Mapping) {
		t.Errorf("no-workload Optimize != IdentityMapping")
	}
}

func TestOptimizeImprovesModeledCost(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 13})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 2000, Seed: 14})
	gs := BuildGroups(c.Ads, wl)
	opts := Options{MaxWords: 10}
	id := IdentityMapping(gs, opts)
	lp := LongPhraseMapping(gs, opts)
	full := Optimize(gs, opts)
	if full.ModeledCost > id.ModeledCost {
		t.Errorf("optimized cost %.0f exceeds identity %.0f", full.ModeledCost, id.ModeledCost)
	}
	if full.ModeledCost > lp.ModeledCost {
		t.Errorf("optimized cost %.0f exceeds long-phrase-only %.0f", full.ModeledCost, lp.ModeledCost)
	}
	if full.Nodes >= id.Nodes {
		t.Errorf("optimization should reduce node count: %d vs %d", full.Nodes, id.Nodes)
	}
}

// The central end-to-end correctness property: an index rebuilt under ANY
// optimizer-produced mapping returns identical broad-match results.
func TestOptimizedMappingPreservesResults(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 23})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 1000, Seed: 24})
	gs := BuildGroups(c.Ads, wl)
	base := core.New(c.Ads, core.Options{})
	for name, res := range map[string]*Result{
		"identity":   IdentityMapping(gs, Options{}),
		"longphrase": LongPhraseMapping(gs, Options{}),
		"full":       Optimize(gs, Options{}),
	} {
		ix, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for qi := range wl.Queries {
			q := wl.Queries[qi].Words
			a := ids(base.BroadMatch(q, nil))
			b := ids(ix.BroadMatch(q, nil))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: query %v results differ: %v vs %v", name, q, a, b)
			}
		}
	}
}

func ids(ads []*corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for _, a := range ads {
		out = append(out, a.ID)
	}
	return out
}

func TestHashCost(t *testing.T) {
	gs := &Groups{}
	model := costmodel.Model{Random: 100, ScanByte: 1}
	lookups := func(n int) int { return (1 << uint(n)) - 1 }
	freqByLen := []int64{0, 10, 5} // 10 one-word queries, 5 two-word
	got := HashCost(gs, freqByLen, model, 16, lookups)
	want := 10*1*(100+16.0) + 5*3*(100+16.0)
	if got != want {
		t.Errorf("HashCost = %v, want %v", got, want)
	}
}

// Property: Optimize always yields a structurally valid mapping on random
// corpora/workloads.
func TestOptimizeValidQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := corpus.Generate(corpus.GenOptions{NumAds: 150 + rng.Intn(200), Seed: seed})
		wl := workload.Generate(c, workload.GenOptions{NumQueries: 100, Seed: seed + 1})
		gs := BuildGroups(c.Ads, wl)
		maxWords := 3 + rng.Intn(8)
		res := Optimize(gs, Options{MaxWords: maxWords})
		if len(res.Mapping) != len(gs.All) {
			return false
		}
		for key, loc := range res.Mapping {
			words := textnorm.SplitKey(key)
			if len(loc) == 0 || len(loc) > maxWords || !textnorm.IsSubset(loc, words) {
				return false
			}
		}
		if _, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{MaxWords: maxWords}); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioShiftsOptimum(t *testing.T) {
	// Cheaper scans (compressed nodes) must never produce MORE nodes than
	// uncompressed optimization, and typically produce fewer: the scan
	// term shrinks, so merging pays off more often.
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 33})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 1500, Seed: 34})
	gs := BuildGroups(c.Ads, wl)
	plain := Optimize(gs, Options{MaxWords: 10})
	compressed := Optimize(gs, Options{MaxWords: 10, CompressionRatio: 0.4})
	if compressed.Nodes > plain.Nodes {
		t.Errorf("compression-aware optimization grew nodes: %d vs %d",
			compressed.Nodes, plain.Nodes)
	}
	// Both mappings must stay valid.
	if _, err := core.NewWithMapping(c.Ads, compressed.Mapping, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// The modeled cost under compression must be lower (fewer bytes AND
	// fewer random accesses).
	if compressed.ModeledCost >= plain.ModeledCost {
		t.Errorf("compressed modeled cost %.0f not below plain %.0f",
			compressed.ModeledCost, plain.ModeledCost)
	}
}

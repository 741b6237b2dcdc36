package adindex

import (
	"reflect"
	"testing"

	"adindex/internal/corpus"
)

// TestResultWordsDoNotAliasIndex is the regression test for the historical
// copyMatches aliasing bug: results shared their Words (and Exclusions)
// backing arrays with index-internal storage, so a caller writing into a
// returned slice silently corrupted the index. The public boundary must
// hand out deep copies.
func TestResultWordsDoNotAliasIndex(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	want := idsOf(ix.BroadMatch("cheap used books today"))
	if !reflect.DeepEqual(want, []uint64{1, 3, 4}) {
		t.Fatalf("precondition: BroadMatch = %v", want)
	}

	// Clobber every string slice reachable from the results.
	m := ix.BroadMatch("used books")
	for i := range m {
		for j := range m[i].Words {
			m[i].Words[j] = "clobbered"
		}
		for j := range m[i].Meta.Exclusions {
			m[i].Meta.Exclusions[j] = "clobbered"
		}
	}

	if got := idsOf(ix.BroadMatch("cheap used books today")); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating returned Words corrupted the index: re-query = %v, want %v", got, want)
	}

	// Same guarantee for ads still in the delta overlay and for the other
	// public entry points.
	ix.Insert(NewAd(42, "fresh delta phrase", Meta{Exclusions: []string{"free"}}))
	for _, res := range [][]Ad{
		ix.BroadMatch("fresh delta phrase now"),
		ix.Match(nil, Query{Text: "fresh delta phrase", Type: Exact}).Ads,
		ix.Match(nil, Query{Text: "a fresh delta phrase query", Type: Phrase}).Ads,
		ix.View().BroadMatchAppend(nil, "fresh delta phrase now"),
		ix.Match(nil, Query{Text: "fresh delta phrase now", Budget: QueryBudget{MaxCost: 1}, Counters: new(Counters)}).Ads,
		ix.Match(nil, Query{Text: "fresh delta phrase now", Rewrite: true}).Ads,
	} {
		if len(res) != 1 {
			t.Fatalf("expected one match for delta ad, got %v", res)
		}
		for j := range res[0].Words {
			res[0].Words[j] = "clobbered"
		}
		for j := range res[0].Meta.Exclusions {
			res[0].Meta.Exclusions[j] = "clobbered"
		}
		if got := idsOf(ix.BroadMatch("fresh delta phrase now")); !reflect.DeepEqual(got, []uint64{42}) {
			t.Fatalf("mutating a result corrupted the delta ad: %v", got)
		}
	}
}

// observeSome seeds a workload so Optimize has something to chew on.
func observeSome(ix *Index, c *corpus.Corpus) {
	for i := 0; i < 50 && i < len(c.Ads); i++ {
		ix.BroadMatch(c.Ads[i].Phrase + " extra words")
	}
}

func TestOptimizeCarriesChurnInOverlay(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 800, Seed: 7})
	ix := Build(c.Ads, Options{})
	observeSome(ix, c)

	churn := NewAd(900001, "optimize window churn phrase", Meta{})
	ix.installHook = func() {
		ix.Insert(churn)
		if !ix.Delete(c.Ads[0].ID, c.Ads[0].Phrase) {
			t.Error("churn delete missed")
		}
	}
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Stale {
		t.Fatal("report.Stale = false after concurrent churn; callers would trust pre-churn numbers")
	}
	if got := idsOf(ix.BroadMatch("optimize window churn phrase today")); !reflect.DeepEqual(got, []uint64{900001}) {
		t.Fatalf("churn insert lost across Optimize: %v", got)
	}
	if got := ix.BroadMatch(c.Ads[0].Phrase); len(idsOf(got)) > 0 && idsOf(got)[0] == c.Ads[0].ID {
		t.Fatal("churn delete lost across Optimize")
	}
	if got, want := ix.NumAds(), len(c.Ads); got != want {
		t.Fatalf("NumAds = %d, want %d", got, want)
	}
}

func TestOptimizeReportFreshWhenQuiet(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 10})
	ix := Build(c.Ads, Options{})
	observeSome(ix, c)
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if report.Stale {
		t.Fatalf("quiet Optimize report = %+v, want it fresh", report)
	}
	if report.NodesAfter <= 0 || report.NodesBefore <= 0 {
		t.Fatalf("node counts missing: %+v", report)
	}
}

// TestWordlessAdMatchesNothing is the regression test for an ad whose
// phrase tokenizes to no word ("!!!"). The overlay scan took its empty word
// set for a subset of every query, so the ad matched everything until the
// next fold and nothing after it (the base enumerates non-empty subsets
// only, as Build over the same ads does), and Optimize failed on the
// empty locator the optimizer proposed for it. It now matches nothing
// wherever it sits — overlay, folded base, recovered durable index — stays a
// record that counts and can be deleted, and leaves Optimize working.
func TestWordlessAdMatchesNothing(t *testing.T) {
	wordless := NewAd(2, "!!!", Meta{})
	if len(wordless.Words) != 0 {
		t.Fatalf("precondition: %q has words %v", wordless.Phrase, wordless.Words)
	}
	check := func(where string, ix *Index, wantAds int) {
		t.Helper()
		for _, q := range []string{"cheap shoes", "shoes", "!!!", "anything at all"} {
			res := ix.Match(nil, Query{Text: q})
			exact := ix.Match(nil, Query{Text: q, Type: Exact}).Ads
			phrase := ix.Match(nil, Query{Text: q, Type: Phrase}).Ads
			for _, got := range [][]Ad{res.Ads, exact, phrase} {
				for _, ad := range got {
					if ad.ID == wordless.ID {
						t.Errorf("%s: %q matched the wordless ad", where, q)
					}
				}
			}
		}
		if got := ix.NumAds(); got != wantAds {
			t.Errorf("%s: NumAds = %d, want %d", where, got, wantAds)
		}
	}

	shoes := NewAd(1, "cheap shoes", Meta{})
	ix := Build([]Ad{shoes}, Options{MaxDeltaAds: 2})
	ix.Insert(wordless)
	check("overlay", ix, 2)
	ix.Insert(NewAd(3, "filler one", Meta{}))
	ix.Insert(NewAd(4, "filler two", Meta{})) // overlay full: folds
	if n, _ := ix.FoldStats(); n == 0 {
		t.Fatal("no fold happened: the test exercises nothing")
	}
	check("folded", ix, 4)
	check("built", Build([]Ad{shoes, wordless}, Options{}), 2)
	ix.BroadMatch("cheap shoes")
	if _, err := ix.Optimize(); err != nil {
		t.Errorf("Optimize over a wordless ad: %v", err)
	}
	check("optimized", ix, 4)

	// Through the WAL and a snapshot: the record is replayed into the
	// overlay, then written out and rebuilt into the base.
	dir := t.TempDir()
	dix, _, err := OpenDurable(dir, Options{}, DurableConfig{Bootstrap: []Ad{shoes}})
	if err != nil {
		t.Fatal(err)
	}
	dix.Insert(wordless)
	check("durable overlay", dix, 2)
	if err := dix.Close(); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"recovered from the WAL", "recovered from a snapshot"} {
		dix, rep, err := OpenDurable(dir, Options{}, DurableConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded() {
			t.Fatalf("%s: degraded recovery: %+v", stage, *rep)
		}
		check(stage, dix, 2)
		if err := dix.Persist(); err != nil {
			t.Fatal(err)
		}
		if stage == "recovered from a snapshot" && !dix.Delete(wordless.ID, "!!!") {
			t.Error("the wordless ad cannot be deleted")
		}
		if err := dix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

package adindex

// Integration tests exercising the full pipeline across modules:
// corpus generation -> index build -> workload observation -> layout
// optimization -> compressed snapshot -> persistence -> two-server
// deployment, asserting result equivalence at every stage.

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/hashindex"
	"adindex/internal/invindex"
	"adindex/internal/multiserver"
	"adindex/internal/optimize"
	"adindex/internal/treeindex"
	"adindex/internal/workload"
)

func TestFullPipeline(t *testing.T) {
	// 1. Synthesize a corpus and a correlated workload.
	c := corpus.Generate(corpus.GenOptions{NumAds: 4000, Seed: 101})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 600, Seed: 102})
	queries := make([]string, len(wl.Queries))
	for i := range wl.Queries {
		queries[i] = strings.Join(wl.Queries[i].Words, " ")
	}

	// 2. Build the index and take a pre-optimization answer baseline.
	ix := Build(c.Ads, Options{})
	baseline := make(map[string][]uint64, len(queries))
	for _, q := range queries {
		baseline[q] = idsOf(ix.BroadMatch(q))
	}

	// 3. Optimize the layout against the observed workload.
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if report.DistinctQueries != len(queries) {
		t.Errorf("observed %d queries, report says %d", len(queries), report.DistinctQueries)
	}
	for _, q := range queries {
		if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, baseline[q]) {
			t.Fatalf("optimization changed results for %q", q)
		}
	}

	// 4. Compressed snapshot: equivalent answers, then survive a
	// serialization round trip.
	var buf bytes.Buffer
	if _, err := compressedSnapshot(t, ix, 0).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := hashindex.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:200] {
		got, err := reloaded.BroadMatchText(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idsOf(got), baseline[q]) {
			t.Fatalf("reloaded snapshot diverged on %q", q)
		}
	}

	// 5. Serve the optimized index over the two-server deployment and
	// check remote answers against the baseline.
	indexSrv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{},
		multiserver.BackendFunc(func(dst []byte, req multiserver.Request) ([]byte, error) {
			return multiserver.AppendIDs(dst, idsOf(ix.BroadMatch(req.Query)), 0), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer indexSrv.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	client, err := multiserver.Dial(indexSrv.Addr(), adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, q := range queries[:100] {
		got, err := client.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := baseline[q]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("remote answer diverged on %q: %v vs %v", q, got, want)
		}
	}
}

// Every index variant in the repository must agree on a shared workload:
// the public Index, both inverted baselines, the compressed snapshot, and
// the tree-structured lookup table.
func TestAllIndexVariantsAgree(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 103})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 400, Seed: 104})

	// pub walks every indexed word of a query, as the inverted baselines
	// do.
	pub := Build(c.Ads, Options{})
	unmod := invindex.NewUnmodified(c.Ads)
	mod := invindex.NewModified(c.Ads)
	snap := compressedSnapshot(t, pub, 0)
	tree := treeindex.New(foldedBase(pub))

	for qi := range wl.Queries {
		words := wl.Queries[qi].Words
		q := strings.Join(words, " ")
		want := idsOf(pub.BroadMatch(q))

		if got := ptrIDs(unmod.BroadMatch(words, nil)); !sameIDs(got, want) {
			t.Fatalf("unmodified diverged on %q: %v vs %v", q, got, want)
		}
		if got := ptrIDs(mod.BroadMatch(words, nil)); !sameIDs(got, want) {
			t.Fatalf("modified diverged on %q: %v vs %v", q, got, want)
		}
		if got := ptrIDs(tree.BroadMatch(words, nil)); !sameIDs(got, want) {
			t.Fatalf("tree diverged on %q: %v vs %v", q, got, want)
		}
		sm, err := snap.BroadMatchText(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := idsOf(sm); !sameIDs(got, want) {
			t.Fatalf("snapshot diverged on %q: %v vs %v", q, got, want)
		}
	}
}

// The offline optimization flow of Section VI: export the observed
// workload, optimize "on another machine", ship the mapping back, apply.
func TestOfflineOptimizationFlow(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 107})
	ix := Build(c.Ads, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 500, Seed: 108})
	queries := make([]string, len(wl.Queries))
	for i := range wl.Queries {
		queries[i] = strings.Join(wl.Queries[i].Words, " ")
		for f := 0; f < wl.Queries[i].Freq%4+1; f++ {
			ix.BroadMatch(queries[i])
		}
	}
	baseline := make(map[string][]uint64, len(queries))
	for _, q := range queries {
		baseline[q] = idsOf(ix.BroadMatch(q))
	}
	nodesBefore := ix.Stats().NumNodes

	// "Separate machine": workload out, mapping back.
	var wlBuf bytes.Buffer
	if err := ix.observed.Workload().Write(&wlBuf); err != nil {
		t.Fatal(err)
	}
	exported, err := workload.Read(&wlBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(exported.Queries) != len(queries) {
		t.Fatalf("exported %d queries, observed %d", len(exported.Queries), len(queries))
	}
	gs := optimize.BuildGroups(c.Ads, exported)
	res := optimize.Optimize(gs, optimize.Options{})
	var mapBuf bytes.Buffer
	if err := optimize.WriteMapping(&mapBuf, res.Mapping); err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyMapping(&mapBuf); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().NumNodes; got >= nodesBefore {
		t.Errorf("offline mapping did not merge nodes: %d -> %d", nodesBefore, got)
	}
	for _, q := range queries {
		if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, baseline[q]) {
			t.Fatalf("offline mapping changed results for %q", q)
		}
	}
}

// Insert/delete churn on the public API must stay consistent with a
// freshly built index over the surviving ads.
func TestChurnConsistency(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1200, Seed: 105})
	ix := Build(c.Ads[:800], Options{})
	// Insert the rest online, then delete a third of everything.
	for _, ad := range c.Ads[800:] {
		ix.Insert(ad)
	}
	for i := 0; i < len(c.Ads); i += 3 {
		if !ix.Delete(c.Ads[i].ID, c.Ads[i].Phrase) {
			t.Fatalf("delete %d failed", c.Ads[i].ID)
		}
	}
	var survivors []Ad
	for i, ad := range c.Ads {
		if i%3 != 0 {
			survivors = append(survivors, ad)
		}
	}
	fresh := Build(survivors, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 300, Seed: 106})
	for qi := range wl.Queries {
		q := strings.Join(wl.Queries[qi].Words, " ")
		a, b := idsOf(ix.BroadMatch(q)), idsOf(fresh.BroadMatch(q))
		if !sameIDs(a, b) {
			t.Fatalf("churned index diverged on %q: %v vs %v", q, a, b)
		}
	}
	if ix.Stats().NumAds != len(survivors) {
		t.Errorf("NumAds = %d, want %d", ix.Stats().NumAds, len(survivors))
	}
}

// Duplicate-word folding must carry through the entire public pipeline.
func TestDuplicateWordsEndToEnd(t *testing.T) {
	ix := Build([]Ad{
		NewAd(1, "talk", Meta{}),
		NewAd(2, "talk talk", Meta{}),
	}, Options{})
	snap := compressedSnapshot(t, ix, 0)
	for q, want := range map[string][]uint64{
		"talk":           {1},
		"talk talk":      {2},
		"talk talk band": {2},
	} {
		if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, want) {
			t.Errorf("index %q = %v, want %v", q, got, want)
		}
		sm, err := snap.BroadMatchText(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := idsOf(sm); !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot %q = %v, want %v", q, got, want)
		}
	}
}

func ptrIDs(ads []*corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for _, a := range ads {
		out = append(out, a.ID)
	}
	return out
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

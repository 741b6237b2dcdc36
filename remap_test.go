package adindex

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

// installer is one caller of the one installer (Optimize, ApplyMapping, an
// adaptation tick), run once on ix.
type installer struct {
	name    string
	install func(ix *Index) error
}

// installers returns every caller of install. The Optimize row requires a
// report marked Stale when stale is set, and a fresh one otherwise;
// ApplyMapping installs mapping; the tick must find a gain and install.
func installers(t *testing.T, mapping map[string][]string, stale bool) []installer {
	var mappingFile bytes.Buffer
	if err := optimize.WriteMapping(&mappingFile, mapping); err != nil {
		t.Fatal(err)
	}
	return []installer{
		{"Optimize", func(ix *Index) error {
			rep, err := ix.Optimize()
			if err == nil && rep.Stale != stale {
				err = fmt.Errorf("report = %+v, want Stale=%v", rep, stale)
			}
			return err
		}},
		{"ApplyMapping", func(ix *Index) error {
			return ix.ApplyMapping(bytes.NewReader(mappingFile.Bytes()))
		}},
		{"tick", func(ix *Index) error {
			installed, err := ix.adaptTick()
			if err == nil && !installed {
				err = errors.New("the tick installed nothing")
			}
			return err
		}},
	}
}

// installCorpus is a corpus with a workload a re-mapping gains on, and
// that workload's optimized mapping.
func installCorpus() (*corpus.Corpus, *workload.Workload, map[string][]string) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 12})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 300, Seed: 13})
	return c, wl, optimize.Optimize(optimize.BuildGroups(c.Ads, wl), optimize.Options{}).Mapping
}

// requireAnswersAsBuilt fails unless ix answers every workload query as a
// fresh Build over ads does.
func requireAnswersAsBuilt(t *testing.T, ix *Index, ads []Ad, wl *workload.Workload) {
	t.Helper()
	fresh := Build(ads, Options{})
	for i := range wl.Queries {
		q := strings.Join(wl.Queries[i].Words, " ")
		if got, want := idsOf(ix.BroadMatch(q)), idsOf(fresh.BroadMatch(q)); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: got %v, a fresh build answers %v", q, got, want)
		}
	}
}

// TestInstallIsOneBuild: every installer over a pending overlay (one
// inserted ad) runs one build, and it is not a fold: FoldStats stays as it
// was, the overlay is empty afterwards, the remap count advances once and
// the index answers as a fresh build over the same ads.
func TestInstallIsOneBuild(t *testing.T) {
	c, wl, mapping := installCorpus()
	for _, tc := range installers(t, mapping, false) {
		t.Run(tc.name, func(t *testing.T) {
			ix := Build(c.Ads, Options{})
			for i := range wl.Queries {
				ix.BroadMatch(strings.Join(wl.Queries[i].Words, " "))
			}
			pending := NewAd(930000, "one pending overlay ad", Meta{})
			ix.Insert(pending)
			folds, _ := ix.FoldStats()
			remaps := ix.Remaps()
			if err := tc.install(ix); err != nil {
				t.Fatal(err)
			}
			if got, _ := ix.FoldStats(); got != folds {
				t.Errorf("folds %d -> %d: the install folded the overlay before its build", folds, got)
			}
			if n := ix.snap.Load().overlaySize(); n != 0 {
				t.Errorf("overlay holds %d entries after the install, want 0", n)
			}
			if got := ix.Remaps() - remaps; got != 1 {
				t.Errorf("remap count advanced by %d, want 1", got)
			}
			if got := idsOf(ix.BroadMatch("the one pending overlay ad")); !reflect.DeepEqual(got, []uint64{930000}) {
				t.Errorf("the pending ad after the install: %v", got)
			}
			requireAnswersAsBuilt(t, ix, append(slices.Clip(c.Ads), pending), wl)
		})
	}
}

// TestRemapInstallers drives every installer on a durable index through
// the same race: between its plan and its install, churn overflows the
// overlay and the writer folds it. The install still lands: answers equal
// a fresh build over the same ads, the remap count advanced once and one
// snapshot generation was written.
func TestRemapInstallers(t *testing.T) {
	const maxDelta = 8
	checkInstallUnderChurn(t, Options{MaxDeltaAds: maxDelta}, maxDelta+1)
}

// TestInstallUnderChurn: with every mutation folding (MaxDeltaAds < 0),
// inserts that land between an installer's plan and its install fold the
// base it planned on, and the install still lands.
func TestInstallUnderChurn(t *testing.T) {
	checkInstallUnderChurn(t, Options{MaxDeltaAds: -1}, 3)
}

// checkInstallUnderChurn runs each installer on a durable index under opts
// while churn inserts land between its plan and its install (installHook).
// Every install must succeed once, with one remap and one snapshot
// generation, and leave every insert answered.
func checkInstallUnderChurn(t *testing.T, opts Options, churn int) {
	c, wl, mapping := installCorpus()
	for _, tc := range installers(t, mapping, true) {
		t.Run(tc.name, func(t *testing.T) {
			ix, _, err := OpenDurable(t.TempDir(), opts, DurableConfig{SnapshotEvery: -1, Bootstrap: c.Ads})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for i := range wl.Queries {
				ix.BroadMatch(strings.Join(wl.Queries[i].Words, " "))
			}

			ads := slices.Clip(c.Ads)
			hooked := 0
			ix.installHook = func() {
				hooked++
				for i := 0; i < churn; i++ {
					ad := NewAd(uint64(920000+i), fmt.Sprintf("remap churn %d", i), Meta{})
					ix.Insert(ad)
					ads = append(ads, ad)
				}
			}
			remaps, gens := ix.Remaps(), durableSnapshots(t, ix)
			if err := tc.install(ix); err != nil {
				t.Fatal(err)
			}
			if hooked != 1 {
				t.Fatalf("the churn ran %d times, want once between the plan and the install", hooked)
			}
			if got := ix.Remaps() - remaps; got != 1 {
				t.Errorf("remap count advanced by %d, want 1", got)
			}
			if got := durableSnapshots(t, ix) - gens; got != 1 {
				t.Errorf("%d snapshot generations written, want 1", got)
			}
			if err := ix.PersistErr(); err != nil {
				t.Error(err)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Error(err)
			}
			for i := 0; i < churn; i++ {
				q := fmt.Sprintf("the remap churn %d", i)
				if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, []uint64{uint64(920000 + i)}) {
					t.Errorf("%q: got %v", q, got)
				}
			}
			requireAnswersAsBuilt(t, ix, ads, wl)
		})
	}
}

func durableSnapshots(t *testing.T, ix *Index) uint64 {
	t.Helper()
	st, ok := ix.DurableStats()
	if !ok {
		t.Fatal("index is not durable")
	}
	return st.Snapshots
}

// TestOptimizeReportPricesLiveMapping is the regression test for a report
// whose "before" was the default placement whatever the index held: a second
// Optimize over an unchanged corpus and workload starts where the first
// ended and has nothing left to gain.
func TestOptimizeReportPricesLiveMapping(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 3})
	ix := Build(c.Ads, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 2500, Seed: 4})
	for i := range wl.Queries {
		ix.BroadMatch(strings.Join(wl.Queries[i].Words, " "))
	}
	first, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if first.ModeledCostAfter >= first.ModeledCostBefore || first.NodesAfter >= first.NodesBefore {
		t.Fatalf("first Optimize gained nothing: %+v", first)
	}
	second, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	// Costs are sums over a map walk: equal up to the order of additions.
	if math.Abs(second.ModeledCostBefore-first.ModeledCostAfter) > 1e-9*first.ModeledCostAfter {
		t.Errorf("second ModeledCostBefore = %.0f, first ModeledCostAfter = %.0f", second.ModeledCostBefore, first.ModeledCostAfter)
	}
	if second.NodesBefore != first.NodesAfter || second.NodesAfter != second.NodesBefore {
		t.Errorf("nodes: first %d -> %d, second %d -> %d", first.NodesBefore, first.NodesAfter, second.NodesBefore, second.NodesAfter)
	}
}

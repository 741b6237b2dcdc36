package adindex

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

// TestRemapInstallers drives every caller of the shared rebuild-and-swap
// (Optimize, ApplyPlacement, ApplyMapping) on a durable index through the
// same race: the hook overflows the overlay during the first rebuild, so
// that rebuild loses its base to a fold and the second wins. The stale row's
// hook also lets an ApplyMapping land mid-rebuild, so the guard trips at the
// swap, not at the door. Every row ends with exactly one install: answers
// equal a fresh build over the same ads, the remap epoch advanced once and
// one snapshot generation was written.
func TestRemapInstallers(t *testing.T) {
	const maxDelta = 8
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 12})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 300, Seed: 13})
	mapping := optimize.Optimize(optimize.BuildGroups(c.Ads, wl), optimize.Options{}).Mapping
	var mappingFile bytes.Buffer
	if err := optimize.WriteMapping(&mappingFile, mapping); err != nil {
		t.Fatal(err)
	}
	applyFile := func(ix *Index) (bool, error) {
		return true, ix.ApplyMapping(bytes.NewReader(mappingFile.Bytes()))
	}
	applyPlacement := func(ix *Index) (bool, error) {
		return ix.ApplyPlacement(mapping, ix.RemapEpoch())
	}

	for _, tc := range []struct {
		name        string
		install     func(*Index) (bool, error)
		midRebuild  func(*Index) (bool, error) // what else the first rebuild races, if anything
		wantApplied bool
	}{
		{"Optimize", func(ix *Index) (bool, error) {
			rep, err := ix.Optimize()
			if err == nil && (rep.Attempts != 2 || !rep.Stale) {
				err = fmt.Errorf("report = %+v, want attempt 2 and Stale", rep)
			}
			return rep.Applied, err
		}, nil, true},
		{"ApplyPlacement", applyPlacement, nil, true},
		{"ApplyPlacement stale", applyPlacement, applyFile, false},
		{"ApplyMapping", applyFile, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, _, err := OpenDurable(t.TempDir(), Options{MaxDeltaAds: maxDelta},
				DurableConfig{SnapshotEvery: -1, Bootstrap: c.Ads})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for i := range wl.Queries {
				ix.ObserveWords(wl.Queries[i].Words)
			}

			ads := append([]Ad(nil), c.Ads...)
			hooked := false
			ix.optimizeRebuildHook = func(int) {
				if hooked {
					return
				}
				hooked = true
				for i := 0; i <= maxDelta; i++ {
					ad := NewAd(uint64(920000+i), fmt.Sprintf("remap churn %d", i), Meta{})
					ix.Insert(ad)
					ads = append(ads, ad)
				}
				if tc.midRebuild != nil {
					if _, err := tc.midRebuild(ix); err != nil {
						t.Error(err)
					}
				}
			}
			epoch, gens := ix.RemapEpoch(), durableSnapshots(t, ix)
			applied, err := tc.install(ix)
			if err != nil {
				t.Fatal(err)
			}
			if applied != tc.wantApplied {
				t.Fatalf("applied = %v, want %v", applied, tc.wantApplied)
			}
			if !hooked {
				t.Fatal("the rebuild hook never ran: the test raced nothing")
			}
			if got := ix.RemapEpoch() - epoch; got != 1 {
				t.Errorf("remap epoch advanced by %d, want 1", got)
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
			fresh := Build(ads, Options{})
			for i := 0; i <= maxDelta; i++ {
				q := fmt.Sprintf("the remap churn %d", i)
				if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, []uint64{uint64(920000 + i)}) {
					t.Errorf("%q: got %v", q, got)
				}
			}
			for i := range wl.Queries {
				q := strings.Join(wl.Queries[i].Words, " ")
				if got, want := idsOf(ix.BroadMatch(q)), idsOf(fresh.BroadMatch(q)); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %q: got %v, a fresh build answers %v", q, got, want)
				}
			}
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
		ix.ObserveWords(wl.Queries[i].Words)
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

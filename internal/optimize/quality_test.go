package optimize

import (
	"reflect"
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// TestOptimizeQualityPin holds Optimize to the modeled cost the monolithic
// lazy-heap greedy plus localImprove reached on fixed instances before it
// was replaced by the placement solver (GreedyAssign refined by bounded
// IncrementalSteps). The constants are that solver's Result.ModeledCost,
// recorded at the parent commit of the swap; the bar is 1.005x of each, and
// the mapping must build and answer the workload as the default build does.
func TestOptimizeQualityPin(t *testing.T) {
	for _, tc := range []struct {
		ads        int
		seed       int64
		parentCost float64
	}{
		{2000, 1, 15727686},
		{2000, 2, 16887198},
		{20000, 1, 52711848},
		{20000, 2, 66012555},
	} {
		c := corpus.Generate(corpus.GenOptions{NumAds: tc.ads, Seed: tc.seed})
		wl := workload.Generate(c, workload.GenOptions{NumQueries: tc.ads / 2, Seed: tc.seed + 100})
		gs := BuildGroups(c.Ads, wl)
		res := Optimize(gs, Options{})
		t.Logf("%d ads seed %d: modeled cost %.0f (parent %.0f, ratio %.4f), %d nodes",
			tc.ads, tc.seed, res.ModeledCost, tc.parentCost, res.ModeledCost/tc.parentCost, res.Nodes)
		if res.ModeledCost > 1.005*tc.parentCost {
			t.Errorf("%d ads seed %d: modeled cost %.0f exceeds 1.005x the parent's %.0f",
				tc.ads, tc.seed, res.ModeledCost, tc.parentCost)
		}
		ix, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{})
		if err != nil {
			t.Fatalf("%d ads seed %d: %v", tc.ads, tc.seed, err)
		}
		base := core.New(c.Ads, core.Options{})
		for qi := range wl.Queries {
			q := wl.Queries[qi].Words
			if a, b := ids(base.BroadMatch(q, nil)), ids(ix.BroadMatch(q, nil)); !reflect.DeepEqual(a, b) {
				t.Fatalf("%d ads seed %d: query %v answers differ: %v vs %v", tc.ads, tc.seed, q, a, b)
			}
		}
	}
}

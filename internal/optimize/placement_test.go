package optimize

import (
	"reflect"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// buildTestPlacement derives a placement instance from a generated
// corpus + workload pair.
func buildTestPlacement(t *testing.T, adsSeed, wlSeed int64, numAds, numQueries int) (*Placement, *Groups, []corpus.Ad) {
	t.Helper()
	c := corpus.Generate(corpus.GenOptions{NumAds: numAds, Seed: adsSeed})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: numQueries, Seed: wlSeed})
	gs := BuildGroups(c.Ads, wl)
	p, err := BuildPlacement(gs, Options{MaxWords: 10})
	if err != nil {
		t.Fatalf("BuildPlacement: %v", err)
	}
	return p, gs, c.Ads
}

// TestPlacementIncrementalEqualsBatchOnCorpora pins the incremental ≡
// batch equivalence on real generated corpora (not just synthetic random
// instances): an unbounded incremental step from scratch must reproduce
// the batch lazy-heap greedy assignment exactly, and re-running it must
// be a fixed point.
func TestPlacementIncrementalEqualsBatchOnCorpora(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		p, _, _ := buildTestPlacement(t, seed, seed+100, 800, 600)
		batch := p.PC.GreedyAssign()

		empty := make([]int, p.NumMovable())
		for e := range empty {
			empty[e] = -1
		}
		step, _ := p.PC.IncrementalStep(empty, 0)
		if !reflect.DeepEqual(step, batch) {
			t.Fatalf("seed %d: unbounded incremental step diverges from batch greedy", seed)
		}
		again, moved := p.PC.IncrementalStep(step, 0)
		if c1, c2 := p.PC.Cost(step), p.PC.Cost(again); c2 > c1*(1+1e-9) {
			t.Fatalf("seed %d: fixed-point step regressed cost %.1f -> %.1f (moved %d)", seed, c1, c2, moved)
		}
	}
}

// TestPlacementAdmissibilityMirrorsBatch: the placement instance must
// enforce the admissibility guards — no multi-member cold locators, no
// cold members absorbed at positive scan cost.
func TestPlacementAdmissibilityMirrorsBatch(t *testing.T) {
	ads := mustAds("a", "a b", "a c", "z q")
	wl := wlOf(qf("a b x", 50), qf("a c", 30))
	gs := BuildGroups(ads, wl)
	p, err := BuildPlacement(gs, Options{MaxWords: 10})
	if err != nil {
		t.Fatal(err)
	}
	mapping := p.MappingFromAssignment(p.PC.GreedyAssign())
	// Group {z q} is never queried: it must stay at its own (cold) node,
	// not be absorbed anywhere, and must not absorb anything.
	zq := textnorm.SetKey([]string{"q", "z"})
	if got := textnorm.SetKey(mapping[zq]); got != zq {
		t.Fatalf("cold group placed at %q, want identity", got)
	}
}

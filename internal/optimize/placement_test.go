package optimize

import (
	"reflect"
	"testing"

	"adindex/internal/core"
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

// TestPlacementStepMonotoneAndValid drives bounded incremental steps from
// identity placement: every applied round must not increase the full
// Cost_Node evaluation, and every intermediate mapping must be valid and
// result-preserving.
func TestPlacementStepMonotoneAndValid(t *testing.T) {
	p, gs, ads := buildTestPlacement(t, 51, 151, 1200, 800)
	opts := Options{MaxWords: 10}
	mapping := IdentityMapping(gs, opts).Mapping
	base := core.New(ads, core.Options{})
	queries := make([][]string, 0, 64)
	for i := range gs.All {
		if i%7 == 0 {
			queries = append(queries, gs.All[i].Words)
		}
	}

	prev := EvaluateMapping(gs, mapping, opts)
	totalMoved := 0
	for round := 0; round < 12; round++ {
		next, moved, costBefore, costAfter := p.Step(mapping, 16)
		if costBefore > prev*(1+1e-9) || costAfter > costBefore*(1+1e-9) {
			t.Fatalf("round %d: cost regressed: prev %.1f before %.1f after %.1f", round, prev, costBefore, costAfter)
		}
		totalMoved += moved
		mapping, prev = next, costAfter

		ix, err := core.NewWithMapping(ads, mapping, core.Options{})
		if err != nil {
			t.Fatalf("round %d: invalid mapping: %v", round, err)
		}
		for _, q := range queries {
			a := ids(base.BroadMatch(q, nil))
			b := ids(ix.BroadMatch(q, nil))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d: results differ for %v", round, q)
			}
		}
		if moved == 0 {
			break
		}
	}
	if totalMoved == 0 {
		t.Fatal("incremental steps from identity placement never moved anything")
	}
	id := IdentityMapping(gs, opts)
	if prev > id.ModeledCost {
		t.Fatalf("converged cost %.1f worse than identity %.1f", prev, id.ModeledCost)
	}
}

// TestPlacementMappingRoundTrip: converting a mapping to an assignment
// and back must preserve the locator of every movable, admissibly-placed
// group.
func TestPlacementMappingRoundTrip(t *testing.T) {
	p, gs, _ := buildTestPlacement(t, 61, 161, 600, 400)
	res := p.MappingFromAssignment(p.PC.GreedyAssign())
	assign := p.AssignmentFromMapping(res)
	back := p.MappingFromAssignment(assign)
	for key, loc := range res {
		if textnorm.SetKey(back[key]) != textnorm.SetKey(loc) {
			t.Fatalf("round trip changed locator of %q: %v -> %v", key, loc, back[key])
		}
	}
	if len(res) != len(gs.All) {
		t.Fatalf("mapping covers %d of %d groups", len(res), len(gs.All))
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

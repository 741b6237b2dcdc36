package setcover

import (
	"math"
	"math/rand"
	"testing"
)

// testCosts is a fixed random cost table.
type testCosts struct {
	open   []float64
	member map[[2]int]float64
}

func (c *testCosts) Open(s int) float64      { return c.open[s] }
func (c *testCosts) Member(s, e int) float64 { return c.member[[2]int{s, e}] }

// randomPlacement builds a random placement instance where every element
// is guaranteed at least one candidate set.
func randomPlacement(t *testing.T, rng *rand.Rand) *Placement {
	t.Helper()
	numElements := 2 + rng.Intn(30)
	numSets := 2 + rng.Intn(20)
	sets := make([][]int, numSets)
	for s := range sets {
		n := 1 + rng.Intn(numElements)
		for i := 0; i < n; i++ {
			sets[s] = append(sets[s], rng.Intn(numElements))
		}
	}
	// Guarantee coverage: element e also appears in set e % numSets.
	for e := 0; e < numElements; e++ {
		s := e % numSets
		sets[s] = append(sets[s], e)
	}
	costs := &testCosts{member: make(map[[2]int]float64)}
	for s := range sets {
		costs.open = append(costs.open, 1+100*rng.Float64())
		for _, e := range sets[s] {
			costs.member[[2]int{s, e}] = 50 * rng.Float64()
		}
	}
	p, err := NewPlacement(numElements, sets, costs)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	return p
}

// randomAssignment assigns every element to a random candidate set.
func randomAssignment(p *Placement, rng *rand.Rand) []int {
	assign := make([]int, p.NumElements)
	for e := range assign {
		cands := p.cands[e]
		assign[e] = cands[rng.Intn(len(cands))]
	}
	return assign
}

func TestGreedyAssignCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := randomPlacement(t, rng)
		assign := p.GreedyAssign()
		if c := p.Cost(assign); math.IsInf(c, 1) {
			t.Fatalf("trial %d: greedy assignment invalid or incomplete: %v", trial, assign)
		}
	}
}

// TestIncrementalNeverIncreasesCost is the control loop's safety property:
// whatever the starting assignment and whatever k, an applied round never
// makes the modeled cost worse.
func TestIncrementalNeverIncreasesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := randomPlacement(t, rng)
		assign := randomAssignment(p, rng)
		cost := p.Cost(assign)
		for round := 0; round < 5; round++ {
			k := rng.Intn(6) // 0 (= unbounded) through 5
			next, moved := p.IncrementalStep(assign, k)
			nextCost := p.Cost(next)
			if nextCost > cost*(1+1e-9) {
				t.Fatalf("trial %d round %d k=%d: cost increased %.6f -> %.6f (moved %d)",
					trial, round, k, cost, nextCost, moved)
			}
			if moved == 0 && nextCost != cost {
				t.Fatalf("trial %d round %d: moved=0 but cost changed %.6f -> %.6f",
					trial, round, cost, nextCost)
			}
			assign, cost = next, nextCost
		}
	}
}

// TestIncrementalUnboundedEqualsBatch pins the equivalence Optimize's
// refinement relies on: with no pool bound and nothing assigned, one incremental
// step IS the batch lazy-heap greedy, and iterating it is a fixed point.
func TestIncrementalUnboundedEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		p := randomPlacement(t, rng)
		batch := p.GreedyAssign()

		empty := make([]int, p.NumElements)
		for e := range empty {
			empty[e] = -1
		}
		step, _ := p.IncrementalStep(empty, 0)
		for e := range batch {
			if step[e] != batch[e] {
				t.Fatalf("trial %d: k=∞ step diverges from batch greedy at element %d: %d vs %d",
					trial, e, step[e], batch[e])
			}
		}
		// Convergence: re-running the unbounded step on its own output
		// must be a fixed point (greedy is deterministic and the guard
		// never accepts a worse result).
		again, _ := p.IncrementalStep(step, 0)
		if c1, c2 := p.Cost(step), p.Cost(again); c2 > c1*(1+1e-9) {
			t.Fatalf("trial %d: repeated unbounded step regressed cost %.6f -> %.6f", trial, c1, c2)
		}
	}
}

// TestIncrementalGuardKeepsBetterStart: when the starting assignment is
// already cheaper than what the greedy re-solve produces, the step must
// return the start unchanged (moved == 0).
func TestIncrementalGuardKeepsBetterStart(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kept := 0
	for trial := 0; trial < 300; trial++ {
		p := randomPlacement(t, rng)
		batch := p.GreedyAssign()
		batchCost := p.Cost(batch)
		// Search a few random assignments for one beating the greedy.
		for i := 0; i < 20; i++ {
			assign := randomAssignment(p, rng)
			if p.Cost(assign) >= batchCost {
				continue
			}
			out, moved := p.IncrementalStep(assign, 0)
			if moved != 0 {
				t.Fatalf("trial %d: guard applied a worse re-solve (moved=%d)", trial, moved)
			}
			for e := range out {
				if out[e] != assign[e] {
					t.Fatalf("trial %d: guard mutated the kept assignment", trial)
				}
			}
			kept++
			break
		}
	}
	if kept == 0 {
		t.Skip("no random assignment beat greedy in any trial; guard untested this run")
	}
}

// TestGapsRankMisplacement: an element whose current placement strands an
// expensive singleton set must rank above a well-placed element.
func TestGapsRankMisplacement(t *testing.T) {
	// Two elements, two sets. Set 0 holds both cheaply; set 1 holds
	// element 1 at a high open cost.
	costs := &testCosts{
		open: []float64{10, 1000},
		member: map[[2]int]float64{
			{0, 0}: 1, {0, 1}: 1, {1, 1}: 1,
		},
	}
	p, err := NewPlacement(2, [][]int{{0, 1}, {1}}, costs)
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 1} // element 1 stranded in the expensive singleton
	gaps := p.Gaps(assign)
	if len(gaps) == 0 || gaps[0].Elem != 1 {
		t.Fatalf("expected element 1 to rank most misplaced, got %+v", gaps)
	}
	if gaps[0].Gain < 900 {
		t.Fatalf("expected stranded-singleton gain to include open cost, got %.1f", gaps[0].Gain)
	}
	out, moved := p.IncrementalStep(assign, 1)
	if moved == 0 || out[1] != 0 {
		t.Fatalf("top-1 step should move element 1 into set 0, got %v (moved %d)", out, moved)
	}
}

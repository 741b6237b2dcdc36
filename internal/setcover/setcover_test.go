package setcover

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func inst(n int, sets ...Set) *Instance {
	for i := range sets {
		sets[i].ID = i
	}
	return &Instance{NumElements: n, Sets: sets}
}

func TestValidate(t *testing.T) {
	good := inst(2, Set{Elements: []int{0}, Weight: 1}, Set{Elements: []int{1}, Weight: 2})
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		inst(2, Set{Elements: []int{0}, Weight: 0}, Set{Elements: []int{1}, Weight: 1}),
		inst(2, Set{Elements: []int{0}, Weight: -1}, Set{Elements: []int{1}, Weight: 1}),
		inst(2, Set{Elements: []int{0, 2}, Weight: 1}, Set{Elements: []int{1}, Weight: 1}),
		inst(2, Set{Elements: []int{0}, Weight: 1}), // element 1 uncoverable
		inst(1, Set{Elements: []int{0}, Weight: math.NaN()}),
		inst(1, Set{Elements: []int{0}, Weight: math.Inf(1)}),
		inst(1, Set{Elements: []int{-1}, Weight: 1}),
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestGreedySimple(t *testing.T) {
	// One big cheap set dominates two singletons.
	in := inst(3,
		Set{Elements: []int{0}, Weight: 1},
		Set{Elements: []int{1}, Weight: 1},
		Set{Elements: []int{2}, Weight: 1},
		Set{Elements: []int{0, 1, 2}, Weight: 1.5},
	)
	chosen, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chosen, []int{3}) {
		t.Errorf("chosen = %v, want [3]", chosen)
	}
	if err := in.Verify(chosen); err != nil {
		t.Error(err)
	}
}

func TestGreedyPrefersCheapSingletons(t *testing.T) {
	in := inst(2,
		Set{Elements: []int{0}, Weight: 1},
		Set{Elements: []int{1}, Weight: 1},
		Set{Elements: []int{0, 1}, Weight: 10},
	)
	chosen, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chosen, []int{0, 1}) {
		t.Errorf("chosen = %v, want [0 1]", chosen)
	}
}

func TestGreedyClassicTightExample(t *testing.T) {
	// Classic instance where greedy is suboptimal: elements {0..3},
	// optimal = two disjoint pairs at weight 1+eps each, but a large set
	// with slightly better initial ratio draws greedy in.
	in := inst(4,
		Set{Elements: []int{0, 1, 2, 3}, Weight: 2.2},
		Set{Elements: []int{0, 1}, Weight: 1.0},
		Set{Elements: []int{2, 3}, Weight: 1.0},
	)
	chosen, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(chosen); err != nil {
		t.Fatal(err)
	}
	// Greedy picks the two pairs here (ratio 0.5 < 0.55) — the point is
	// just that the result is within H_2 of optimal.
	_, opt, err := ExactDP(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.TotalWeight(chosen); got > opt*Harmonic(4)+1e-9 {
		t.Errorf("greedy weight %v exceeds H_4 bound (opt %v)", got, opt)
	}
}

func TestGreedyDuplicateElements(t *testing.T) {
	in := inst(2, Set{Elements: []int{0, 0, 1, 1}, Weight: 1})
	chosen, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 {
		t.Errorf("chosen = %v", chosen)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	in := &Instance{NumElements: 2, Sets: []Set{{Elements: []int{0}, Weight: 1}}}
	if _, err := Greedy(in); err == nil {
		t.Error("infeasible instance should fail")
	}
}

func TestWithdraw(t *testing.T) {
	in := inst(3,
		Set{Elements: []int{0, 1}, Weight: 2},
		Set{Elements: []int{1, 2}, Weight: 2},
		Set{Elements: []int{0, 1, 2}, Weight: 3},
	)
	// A cover containing all three sets: the expensive redundant one must
	// be withdrawn first.
	refined := Withdraw(in, []int{0, 1, 2})
	if err := in.Verify(refined); err != nil {
		t.Fatal(err)
	}
	if in.TotalWeight(refined) >= in.TotalWeight([]int{0, 1, 2}) {
		t.Errorf("withdrawal did not reduce weight: %v", refined)
	}
	for _, si := range refined {
		if si == 2 {
			t.Errorf("expensive redundant set kept: %v", refined)
		}
	}
}

func TestWithdrawKeepsNecessarySets(t *testing.T) {
	in := inst(2,
		Set{Elements: []int{0}, Weight: 5},
		Set{Elements: []int{1}, Weight: 5},
	)
	refined := Withdraw(in, []int{0, 1})
	if !reflect.DeepEqual(refined, []int{0, 1}) {
		t.Errorf("necessary sets dropped: %v", refined)
	}
}

func TestExactDP(t *testing.T) {
	in := inst(4,
		Set{Elements: []int{0, 1}, Weight: 1},
		Set{Elements: []int{2, 3}, Weight: 1},
		Set{Elements: []int{0, 1, 2, 3}, Weight: 2.5},
		Set{Elements: []int{0}, Weight: 0.4},
		Set{Elements: []int{1, 2, 3}, Weight: 1.2},
	)
	chosen, cost, err := ExactDP(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(chosen); err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-1.6) > 1e-9 {
		t.Errorf("optimal cost = %v, want 1.6 ({0}, {1,2,3})", cost)
	}
}

func TestExactDPTooLarge(t *testing.T) {
	in := &Instance{NumElements: 25}
	if _, _, err := ExactDP(in); err == nil {
		t.Error("should reject > 24 elements")
	}
}

func TestExactDPInfeasible(t *testing.T) {
	in := &Instance{NumElements: 2, Sets: []Set{{Elements: []int{0}, Weight: 1}}}
	if _, _, err := ExactDP(in); err == nil {
		t.Error("infeasible instance should fail validation")
	}
}

func TestHarmonic(t *testing.T) {
	if got := Harmonic(1); got != 1 {
		t.Errorf("H_1 = %v", got)
	}
	if got := Harmonic(3); math.Abs(got-(1+0.5+1.0/3)) > 1e-12 {
		t.Errorf("H_3 = %v", got)
	}
	if got := Harmonic(0); got != 0 {
		t.Errorf("H_0 = %v", got)
	}
}

func TestMaxSetSize(t *testing.T) {
	in := inst(5,
		Set{Elements: []int{0, 1, 1}, Weight: 1},
		Set{Elements: []int{0, 1, 2, 3, 4}, Weight: 1},
	)
	if got := in.MaxSetSize(); got != 5 {
		t.Errorf("MaxSetSize = %d", got)
	}
}

// Property: on random small instances, greedy produces a valid cover whose
// weight is within the H_k bound of the DP optimum, and withdrawal never
// hurts.
func TestGreedyBoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8) // elements
		m := n + rng.Intn(10)
		sets := make([]Set, 0, m+n)
		for i := 0; i < m; i++ {
			size := 1 + rng.Intn(4)
			elems := make([]int, size)
			for j := range elems {
				elems[j] = rng.Intn(n)
			}
			sets = append(sets, Set{ID: i, Elements: elems, Weight: 0.1 + rng.Float64()*5})
		}
		// Ensure feasibility with singletons.
		for e := 0; e < n; e++ {
			sets = append(sets, Set{ID: m + e, Elements: []int{e}, Weight: 0.1 + rng.Float64()*5})
		}
		in := &Instance{NumElements: n, Sets: sets}
		chosen, err := Greedy(in)
		if err != nil {
			return false
		}
		if in.Verify(chosen) != nil {
			return false
		}
		refined := Withdraw(in, chosen)
		if in.Verify(refined) != nil {
			return false
		}
		if in.TotalWeight(refined) > in.TotalWeight(chosen)+1e-9 {
			return false
		}
		_, opt, err := ExactDP(in)
		if err != nil {
			return false
		}
		k := in.MaxSetSize()
		return in.TotalWeight(chosen) <= opt*Harmonic(k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Package setcover solves the weighted set cover instances that arise from
// the index-mapping optimization of Section V. Computing the optimal
// re-mapping of ads to data nodes is exactly minimum-weight set cover over
// the base set of candidate nodes (Section V-A); general set cover is
// NP-hard, but because the cost model bounds the useful size of a data
// node to k elements, the classic greedy algorithm is an H_k-approximation
// (Section V-B, citing Chvátal), and withdrawal-style refinement improves
// it further (Hassin–Levin).
//
// Elements are integers 0..NumElements-1; in the mapping application each
// element is one distinct word set (all ads sharing a word set move
// together, per mapping condition IV, which is also what tightens the
// bound from H_k to H_k').
package setcover

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Set is one candidate set with a positive weight.
type Set struct {
	// ID identifies the set to the caller (e.g. a candidate-node index).
	ID int
	// Elements lists the covered elements (need not be sorted; duplicates
	// are ignored).
	Elements []int
	// Weight is the cost of choosing this set; must be positive.
	Weight float64
}

// Instance is a weighted set cover instance.
type Instance struct {
	NumElements int
	Sets        []Set
}

// Validate checks structural validity: positive weights, elements in
// range, and every element coverable by at least one set.
func (in *Instance) Validate() error {
	covered := make([]bool, in.NumElements)
	for i := range in.Sets {
		s := &in.Sets[i]
		if s.Weight <= 0 {
			return fmt.Errorf("setcover: set %d (id %d) has non-positive weight %v", i, s.ID, s.Weight)
		}
		if math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
			return fmt.Errorf("setcover: set %d has invalid weight %v", i, s.Weight)
		}
		for _, e := range s.Elements {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("setcover: set %d element %d out of range [0,%d)", i, e, in.NumElements)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("setcover: element %d not covered by any set", e)
		}
	}
	return nil
}

// Verify checks that the chosen set indexes cover every element.
func (in *Instance) Verify(chosen []int) error {
	covered := make([]bool, in.NumElements)
	for _, si := range chosen {
		if si < 0 || si >= len(in.Sets) {
			return fmt.Errorf("setcover: chosen index %d out of range", si)
		}
		for _, e := range in.Sets[si].Elements {
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("setcover: element %d uncovered", e)
		}
	}
	return nil
}

// TotalWeight sums the weights of the chosen sets.
func (in *Instance) TotalWeight(chosen []int) float64 {
	t := 0.0
	for _, si := range chosen {
		t += in.Sets[si].Weight
	}
	return t
}

// heap item for lazy greedy: sets ordered by weight per newly covered
// element. Ratios only grow as elements get covered, so a stale top can be
// re-scored and pushed back (standard lazy evaluation).
type greedyItem struct {
	setIdx int
	ratio  float64
	// coveredAt is the round counter when ratio was computed.
	coveredAt int
}

type greedyHeap []greedyItem

func (h greedyHeap) Len() int            { return len(h) }
func (h greedyHeap) Less(i, j int) bool  { return h[i].ratio < h[j].ratio }
func (h greedyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *greedyHeap) Push(x interface{}) { *h = append(*h, x.(greedyItem)) }
func (h *greedyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Greedy runs the Chvátal greedy algorithm with lazy evaluation: repeatedly
// choose the set minimizing weight per newly covered element. The returned
// solution is an H_k-approximation where k is the largest set size. The
// instance must be valid (call Validate for untrusted input).
func Greedy(in *Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	covered := make([]bool, in.NumElements)
	remaining := in.NumElements
	h := make(greedyHeap, 0, len(in.Sets))
	for i := range in.Sets {
		n := distinctCount(in.Sets[i].Elements)
		if n == 0 {
			continue
		}
		h = append(h, greedyItem{setIdx: i, ratio: in.Sets[i].Weight / float64(n), coveredAt: 0})
	}
	heap.Init(&h)

	round := 0
	var chosen []int
	for remaining > 0 && h.Len() > 0 {
		it := heap.Pop(&h).(greedyItem)
		if it.coveredAt < round {
			// Stale: re-score against current coverage.
			n := uncoveredCount(in.Sets[it.setIdx].Elements, covered)
			if n == 0 {
				continue
			}
			it.ratio = in.Sets[it.setIdx].Weight / float64(n)
			it.coveredAt = round
			heap.Push(&h, it)
			continue
		}
		// Fresh top: take it.
		n := 0
		for _, e := range in.Sets[it.setIdx].Elements {
			if !covered[e] {
				covered[e] = true
				n++
			}
		}
		if n == 0 {
			continue
		}
		remaining -= n
		chosen = append(chosen, it.setIdx)
		round++
	}
	if remaining > 0 {
		return nil, fmt.Errorf("setcover: greedy failed to cover %d elements", remaining)
	}
	sort.Ints(chosen)
	return chosen, nil
}

func distinctCount(elems []int) int {
	seen := make(map[int]struct{}, len(elems))
	for _, e := range elems {
		seen[e] = struct{}{}
	}
	return len(seen)
}

func uncoveredCount(elems []int, covered []bool) int {
	n := 0
	seen := make(map[int]struct{}, len(elems))
	for _, e := range elems {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		if !covered[e] {
			n++
		}
	}
	return n
}

// Withdraw refines a cover by withdrawal steps: any chosen set whose
// elements are all covered by the other chosen sets is dropped (always an
// improvement for positive weights). Sets are considered in decreasing
// weight order so expensive redundancies go first. Returns the refined
// cover.
func Withdraw(in *Instance, chosen []int) []int {
	coverCount := make([]int, in.NumElements)
	for _, si := range chosen {
		for _, e := range uniqueElems(in.Sets[si].Elements) {
			coverCount[e]++
		}
	}
	order := make([]int, len(chosen))
	copy(order, chosen)
	sort.Slice(order, func(i, j int) bool { return in.Sets[order[i]].Weight > in.Sets[order[j]].Weight })

	dropped := make(map[int]bool)
	for _, si := range order {
		elems := uniqueElems(in.Sets[si].Elements)
		redundant := true
		for _, e := range elems {
			if coverCount[e] <= 1 {
				redundant = false
				break
			}
		}
		if redundant {
			dropped[si] = true
			for _, e := range elems {
				coverCount[e]--
			}
		}
	}
	var out []int
	for _, si := range chosen {
		if !dropped[si] {
			out = append(out, si)
		}
	}
	return out
}

func uniqueElems(elems []int) []int {
	seen := make(map[int]struct{}, len(elems))
	out := elems[:0:0]
	for _, e := range elems {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}

// ExactDP computes the optimal cover by dynamic programming over element
// bitmasks. It requires NumElements <= 24 and is intended for tests that
// validate the greedy approximation bound.
func ExactDP(in *Instance) ([]int, float64, error) {
	if in.NumElements > 24 {
		return nil, 0, fmt.Errorf("setcover: ExactDP limited to 24 elements, got %d", in.NumElements)
	}
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	full := (1 << uint(in.NumElements)) - 1
	masks := make([]int, len(in.Sets))
	for i := range in.Sets {
		m := 0
		for _, e := range in.Sets[i].Elements {
			m |= 1 << uint(e)
		}
		masks[i] = m
	}
	const inf = math.MaxFloat64
	cost := make([]float64, full+1)
	from := make([]int, full+1) // set index used to reach this mask
	prev := make([]int, full+1) // previous mask
	for m := 1; m <= full; m++ {
		cost[m] = inf
		from[m] = -1
	}
	for m := 0; m <= full; m++ {
		if cost[m] == inf {
			continue
		}
		// Cover the lowest uncovered element to avoid redundant states.
		if m == full {
			continue
		}
		low := 0
		for (m>>uint(low))&1 == 1 {
			low++
		}
		for i, sm := range masks {
			if sm&(1<<uint(low)) == 0 {
				continue
			}
			nm := m | sm
			nc := cost[m] + in.Sets[i].Weight
			if nc < cost[nm] {
				cost[nm] = nc
				from[nm] = i
				prev[nm] = m
			}
		}
	}
	if cost[full] == inf {
		return nil, 0, fmt.Errorf("setcover: no cover exists")
	}
	var chosen []int
	for m := full; m != 0; m = prev[m] {
		chosen = append(chosen, from[m])
	}
	sort.Ints(chosen)
	return chosen, cost[full], nil
}

// Harmonic returns H_k = sum_{i=1..k} 1/i, the greedy approximation factor
// for instances whose sets have at most k elements.
func Harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

// MaxSetSize returns the largest number of distinct elements in any set.
func (in *Instance) MaxSetSize() int {
	k := 0
	for i := range in.Sets {
		if n := distinctCount(in.Sets[i].Elements); n > k {
			k = n
		}
	}
	return k
}

package setcover

import (
	"container/heap"
	"math"
	"sort"
)

// This file implements the *placement* form of weighted set cover, which
// the mapping optimizer and the continuous-adaptation control loop both
// solve. Instance treats a candidate node as a monolithic set with one
// precomputed weight; re-mapping needs to move a few elements at a time,
// which requires the weight decomposed into the part paid once per chosen
// set (the locator's random accesses) and the part paid per member (that
// member's scan term). With the decomposition, the marginal cost of
// adding one element to an already-open set — the quantity an
// incremental step reasons about — is well defined.

// PlacementCosts decomposes node weights: choosing set s at all costs
// Open(s) once, and every element e assigned to s additionally costs
// Member(s, e). Both must be non-negative and must not change while a
// Placement built over them is in use.
type PlacementCosts interface {
	Open(set int) float64
	Member(set, elem int) float64
}

// Placement is a set-cover instance in placement form: every element must
// be assigned to exactly one of the sets containing it, and the total
// cost of an assignment is Σ Open(s) over non-empty sets plus
// Σ Member(assign[e], e) over elements.
type Placement struct {
	NumElements int
	Costs       PlacementCosts
	// elems[s] lists set s's distinct elements ascending.
	elems [][]int
	// cands[e] lists the sets containing element e, ascending.
	cands [][]int
	// order[s] lists set s's elements by ascending Member(s, ·) cost
	// (ties by element index). Member costs are static, so the greedy
	// prefix rule can reuse this order for every coverage state.
	order [][]int
}

// NewPlacement builds a placement instance over numElements elements,
// where sets[s] lists the elements set s may hold (duplicates ignored).
// Every element must appear in at least one set.
func NewPlacement(numElements int, sets [][]int, costs PlacementCosts) (*Placement, error) {
	p := &Placement{
		NumElements: numElements,
		Costs:       costs,
		elems:       make([][]int, len(sets)),
		cands:       make([][]int, numElements),
	}
	in := &Instance{NumElements: numElements, Sets: make([]Set, len(sets))}
	for s, es := range sets {
		in.Sets[s] = Set{ID: s, Elements: es, Weight: 1}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	for s, es := range sets {
		p.elems[s] = uniqueElems(append([]int(nil), es...))
		sort.Ints(p.elems[s])
		for _, e := range p.elems[s] {
			p.cands[e] = append(p.cands[e], s)
		}
	}
	p.order = make([][]int, len(sets))
	for s := range sets {
		o := append([]int(nil), p.elems[s]...)
		sort.Slice(o, func(i, j int) bool {
			ci, cj := costs.Member(s, o[i]), costs.Member(s, o[j])
			if ci != cj {
				return ci < cj
			}
			return o[i] < o[j]
		})
		p.order[s] = o
	}
	return p, nil
}

// Holds reports whether candidate set s contains element e.
func (p *Placement) Holds(s, e int) bool {
	return s >= 0 && s < len(p.elems) && containsSorted(p.elems[s], e)
}

// Cost returns the total decomposed cost of an assignment, or +Inf if any
// element is unassigned (assign[e] < 0) or assigned to a set that does
// not contain it.
func (p *Placement) Cost(assign []int) float64 {
	opened := make(map[int]bool)
	total := 0.0
	for e, s := range assign {
		if s < 0 || s >= len(p.elems) || !containsSorted(p.elems[s], e) {
			return math.Inf(1)
		}
		if !opened[s] {
			opened[s] = true
			total += p.Costs.Open(s)
		}
		total += p.Costs.Member(s, e)
	}
	return total
}

// GreedyAssign computes a full assignment with the batch lazy-heap
// greedy: repeatedly open the set (or extend an open set) minimizing cost
// per newly assigned element, where a set's best candidate block is a
// prefix of its elements in ascending member-cost order.
func (p *Placement) GreedyAssign() []int {
	assign := make([]int, p.NumElements)
	pool := make([]bool, p.NumElements)
	for e := range assign {
		assign[e] = -1
		pool[e] = true
	}
	p.greedyInto(assign, pool, p.NumElements)
	return assign
}

// Gap is one element's misplacement score: the modeled-cost reduction of
// moving it from its current set to its best alternative, holding every
// other element fixed. Unassigned elements score +Inf.
type Gap struct {
	Elem int
	Gain float64
}

// Gaps scores every element's misplacement under assign and returns the
// scores in descending gain order (ties by ascending element index).
// Moving the last member out of a set also recovers the set's open cost,
// which is what makes stranded singleton nodes show up as misplaced.
func (p *Placement) Gaps(assign []int) []Gap {
	memberCount := p.memberCounts(assign)
	gaps := make([]Gap, 0, len(assign))
	for e, cur := range assign {
		if cur < 0 {
			gaps = append(gaps, Gap{Elem: e, Gain: math.Inf(1)})
			continue
		}
		curCost := p.Costs.Member(cur, e)
		if memberCount[cur] == 1 {
			curCost += p.Costs.Open(cur)
		}
		best := math.Inf(1)
		for _, s := range p.cands[e] {
			if s == cur {
				continue
			}
			c := p.Costs.Member(s, e)
			if memberCount[s] == 0 {
				c += p.Costs.Open(s)
			}
			if c < best {
				best = c
			}
		}
		if math.IsInf(best, 1) {
			continue // only one candidate set; never misplaced
		}
		gaps = append(gaps, Gap{Elem: e, Gain: curCost - best})
	}
	sort.Slice(gaps, func(i, j int) bool {
		if gaps[i].Gain != gaps[j].Gain {
			return gaps[i].Gain > gaps[j].Gain
		}
		return gaps[i].Elem < gaps[j].Elem
	})
	return gaps
}

// IncrementalStep re-solves placement for a bounded pool of elements: all
// unassigned elements plus the top-k most-misplaced assigned ones
// (positive gain only). The pool is unassigned and re-covered by the same
// lazy greedy as GreedyAssign, except that joining a set which keeps
// members outside the pool pays no open cost. k <= 0 means no bound, in
// which case every element is pooled and the step is exactly one batch
// GreedyAssign run.
//
// The step never increases total cost: if the re-solve comes out worse
// than the input assignment (possible, since greedy is a heuristic), the
// input is returned unchanged. The returned slice is always a fresh copy;
// moved counts elements whose set changed.
func (p *Placement) IncrementalStep(assign []int, k int) (out []int, moved int) {
	out = append([]int(nil), assign...)
	pool := make([]bool, p.NumElements)
	poolCount := 0
	if k <= 0 {
		for e := range pool {
			pool[e] = true
			poolCount++
		}
	} else {
		taken := 0
		for _, g := range p.Gaps(assign) {
			if assign[g.Elem] >= 0 {
				if taken >= k || g.Gain <= 1e-12 {
					continue
				}
				taken++
			}
			pool[g.Elem] = true
			poolCount++
		}
	}
	if poolCount == 0 {
		return out, 0
	}
	for e := range pool {
		if pool[e] {
			out[e] = -1
		}
	}
	p.greedyInto(out, pool, poolCount)

	oldCost := p.Cost(assign)
	if p.Cost(out) > oldCost*(1+1e-12) {
		// Guard: an incremental round must never regress the modeled
		// cost. Keep the old assignment; the misplaced elements will be
		// reconsidered under fresh statistics next round.
		return append(assign[:0:0], assign...), 0
	}
	for e := range out {
		if out[e] != assign[e] {
			moved++
		}
	}
	return out, moved
}

// memberCounts returns, per set, how many elements assign places in it.
func (p *Placement) memberCounts(assign []int) []int {
	counts := make([]int, len(p.elems))
	for _, s := range assign {
		if s >= 0 {
			counts[s]++
		}
	}
	return counts
}

// greedyInto assigns every pooled element with the lazy-heap greedy,
// writing into assign (pool elements must already be -1 there). Sets that
// retain members outside the pool are treated as open: pooled elements
// joining them pay member cost only. When the pool is all elements, no
// set is open and this is the plain batch greedy.
func (p *Placement) greedyInto(assign []int, pool []bool, poolCount int) {
	memberCount := p.memberCounts(assign)

	// bestPrefix returns the minimum-ratio block of still-pooled,
	// still-uncovered elements for set s, as (ratio, prefix length in
	// order[s] walk terms). ok is false when s has no such element.
	bestPrefix := func(s int) (ratio float64, take []int, ok bool) {
		base := 0.0
		if memberCount[s] == 0 {
			base = p.Costs.Open(s)
		}
		sum := base
		n := 0
		bestRatio := -1.0
		bestLen := 0
		for _, e := range p.order[s] {
			if !pool[e] || assign[e] >= 0 {
				continue
			}
			sum += p.Costs.Member(s, e)
			n++
			if r := sum / float64(n); bestRatio < 0 || r < bestRatio {
				bestRatio, bestLen = r, n
			}
		}
		if bestRatio < 0 {
			return 0, nil, false
		}
		take = make([]int, 0, bestLen)
		for _, e := range p.order[s] {
			if !pool[e] || assign[e] >= 0 {
				continue
			}
			take = append(take, e)
			if len(take) == bestLen {
				break
			}
		}
		return bestRatio, take, true
	}

	h := make(greedyHeap, 0, len(p.elems))
	for s := range p.elems {
		if r, _, ok := bestPrefix(s); ok {
			h = append(h, greedyItem{setIdx: s, ratio: r})
		}
	}
	heap.Init(&h)

	remaining := poolCount
	for remaining > 0 && h.Len() > 0 {
		it := heap.Pop(&h).(greedyItem)
		r, take, ok := bestPrefix(it.setIdx)
		if !ok {
			continue
		}
		if r > it.ratio+1e-12 {
			// Stale: coverage advanced since this entry was scored.
			heap.Push(&h, greedyItem{setIdx: it.setIdx, ratio: r})
			continue
		}
		for _, e := range take {
			assign[e] = it.setIdx
			remaining--
		}
		memberCount[it.setIdx] += len(take)
		// Re-score immediately: the set's open cost is now paid, so its
		// next block may be *cheaper* than recorded. The lazy-staleness
		// rule only tolerates ratios that degrade, so improved sets must
		// re-enter the heap with a fresh score.
		if r, _, ok := bestPrefix(it.setIdx); ok {
			heap.Push(&h, greedyItem{setIdx: it.setIdx, ratio: r})
		}
	}
}

func containsSorted(sorted []int, e int) bool {
	i := sort.SearchInts(sorted, e)
	return i < len(sorted) && sorted[i] == e
}

package optimize

import "adindex/internal/setcover"

// This file bridges the group statistics to the placement form of set
// cover (setcover.Placement), the instance Optimize solves: elements are
// movable groups, candidate sets are admissible locators, Open is the
// locator's random-access term and Member is the Equation (2) scan term.
// Optimize solves it from nothing: batch greedy, then refinement steps.

// Placement couples a setcover placement instance with the indexing
// needed to translate between element assignments and word-set mappings.
type Placement struct {
	PC   *setcover.Placement
	gs   *Groups
	opts Options
	// elemGroup[e] is the group index of element e; groupElem[g] is g's
	// element index, or -1 when g is not movable (it keeps its current
	// or fallback locator).
	elemGroup []int
	groupElem []int
	// setGroup[s] is the group index of candidate-locator set s;
	// groupSet[g] is the set index of locator g, or -1.
	setGroup []int
	groupSet []int
}

// placementCosts prices the decomposed instance: Open(s) is the random-
// access term of the locator's node, Member(s, e) the member's scan term.
type placementCosts struct {
	p *Placement
}

func (c placementCosts) Open(s int) float64 {
	loc := &c.p.gs.All[c.p.setGroup[s]]
	base := float64(loc.FreqTotal()) * c.p.opts.Model.RandomCost()
	if base <= 0 {
		// Cold self-placement set: tiny positive cost keeps the greedy
		// deterministic without letting cold nodes look free.
		base = 1e-9
	}
	return base
}

func (c placementCosts) Member(s, e int) float64 {
	loc := &c.p.gs.All[c.p.setGroup[s]]
	return scanTerm(&c.p.opts, loc, &c.p.gs.All[c.p.elemGroup[e]])
}

// BuildPlacement derives the placement instance from group statistics.
// Candidate sets are:
//
//   - every workload-reached locator of at most MaxWords words, holding
//     its descendants (minus never-queried groups whose scan term is
//     positive — absorbing those adds cost for nothing), and
//   - a self-placement set for every short group, so each movable group
//     can always stand alone (identity placement).
//
// Groups longer than MaxWords with no admissible ancestor are excluded
// from the instance entirely and keep their fallback locators.
func BuildPlacement(gs *Groups, opts Options) (*Placement, error) {
	opts.fillDefaults()
	p := &Placement{
		gs:        gs,
		opts:      opts,
		groupElem: make([]int, len(gs.All)),
		groupSet:  make([]int, len(gs.All)),
	}
	for g := range p.groupElem {
		p.groupElem[g] = -1
		p.groupSet[g] = -1
	}
	desc := gs.Descendants()

	// First pass: which groups are movable? A group is an element iff at
	// least one candidate set can hold it.
	canHold := make([][]int, len(gs.All)) // locator group -> member group indexes
	for l := range gs.All {
		loc := &gs.All[l]
		if len(loc.Words) > opts.MaxWords {
			continue
		}
		if loc.FreqTotal() == 0 {
			// Cold locator: only admissible as its own singleton node. A
			// node the workload never reaches offers no evidence for
			// merging, and its zero weight would otherwise absorb every
			// cold descendant into one degenerate node.
			canHold[l] = []int{l}
			continue
		}
		ms := make([]int, 0, len(desc[l]))
		for _, g := range desc[l] {
			if g != l && gs.All[g].FreqTotal() == 0 && scanTerm(&opts, loc, &gs.All[g]) > 0 {
				continue
			}
			ms = append(ms, g)
		}
		canHold[l] = ms
	}
	movable := make([]bool, len(gs.All))
	for _, ms := range canHold {
		for _, g := range ms {
			movable[g] = true
		}
	}

	// Second pass: dense element and set numbering over movable groups
	// and non-empty candidate sets.
	for g := range gs.All {
		if movable[g] {
			p.groupElem[g] = len(p.elemGroup)
			p.elemGroup = append(p.elemGroup, g)
		}
	}
	var sets [][]int
	for l, ms := range canHold {
		elems := make([]int, 0, len(ms))
		for _, g := range ms {
			if e := p.groupElem[g]; e >= 0 {
				elems = append(elems, e)
			}
		}
		if len(elems) == 0 {
			continue
		}
		p.groupSet[l] = len(p.setGroup)
		p.setGroup = append(p.setGroup, l)
		sets = append(sets, elems)
	}

	pc, err := setcover.NewPlacement(len(p.elemGroup), sets, placementCosts{p: p})
	if err != nil {
		return nil, err
	}
	p.PC = pc
	return p, nil
}

// NumMovable returns the number of elements (movable groups).
func (p *Placement) NumMovable() int { return len(p.elemGroup) }

// MappingFromAssignment produces a complete mapping: assigned elements
// map to their set's locator words, unassigned elements and excluded
// groups fall back to their own words, or a synthetic locator when too
// long.
func (p *Placement) MappingFromAssignment(assign []int) map[string][]string {
	mapping := make(map[string][]string, len(p.gs.All))
	for g := range p.gs.All {
		var loc []string
		if e := p.groupElem[g]; e >= 0 && assign[e] >= 0 {
			loc = p.gs.All[p.setGroup[assign[e]]].Words
		} else {
			loc = fallbackLocator(p.gs.All[g].Words, p.opts.MaxWords)
		}
		mapping[p.gs.All[g].Key] = loc
	}
	return mapping
}

package optimize

import (
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// Options configures the optimizer.
type Options struct {
	// MaxWords is the locator length bound (must match the index's
	// max_words). Default 10.
	MaxWords int
	// Model is the memory cost model; zero value means costmodel.Default.
	Model costmodel.Model
	// CompressionRatio scales scan costs when data nodes are front-coded
	// (Section VI: compression gains fold into weight(S)). 1.0 or 0 means
	// uncompressed; e.g. 0.6 if nodes compress to 60% of raw size.
	// Compressed nodes scan fewer bytes, which shifts the optimum toward
	// larger nodes.
	CompressionRatio float64
}

func (o *Options) fillDefaults() {
	if o.MaxWords == 0 {
		o.MaxWords = 10
	}
	if o.Model == (costmodel.Model{}) {
		o.Model = costmodel.Default()
	}
	if o.CompressionRatio == 0 {
		o.CompressionRatio = 1
	}
}

// scanBytes returns the modeled byte footprint of a group under the
// configured compression ratio.
func (o *Options) scanBytes(raw int) int {
	if o.CompressionRatio == 1 {
		return raw
	}
	return int(float64(raw) * o.CompressionRatio)
}

// Result is a computed mapping together with its modeled cost.
type Result struct {
	// Mapping maps word-set keys to locator word sets, in the form
	// accepted by core.NewWithMapping.
	Mapping map[string][]string
	// Nodes is the number of data nodes the mapping produces.
	Nodes int
	// ModeledCost is Cost_Node(WL, M) under the cost model (hash-table
	// cost is mapping-independent and excluded, as in Section V-A).
	ModeledCost float64
}

// IdentityMapping maps every group to its own word set, re-mapping only
// groups longer than MaxWords via fallback locators. This mirrors
// core.New's default placement and is variant (a)/(b) of Figure 10.
func IdentityMapping(gs *Groups, opts Options) *Result {
	opts.fillDefaults()
	mapping := make(map[string][]string, len(gs.All))
	for i := range gs.All {
		g := &gs.All[i]
		mapping[g.Key] = fallbackLocator(g.Words, opts.MaxWords)
	}
	return newResult(gs, mapping, opts)
}

// newResult prices a complete mapping and counts the nodes it produces.
func newResult(gs *Groups, mapping map[string][]string, opts Options) *Result {
	cost, nodes := evaluateNodeCost(gs, mappedLocator(mapping), opts)
	return &Result{Mapping: mapping, Nodes: nodes, ModeledCost: cost}
}

// mappedLocator reads each group's locator off a complete mapping.
func mappedLocator(mapping map[string][]string) func(*Group) []string {
	return func(g *Group) []string { return mapping[g.Key] }
}

// LongPhraseMapping re-maps only groups longer than MaxWords, choosing the
// existing ancestor locator with the highest query frequency (maximally
// shared random accesses); groups with no usable ancestor fall back to a
// synthetic locator. Short groups stay at their own word sets. This is
// variant (b) of Figure 10.
func LongPhraseMapping(gs *Groups, opts Options) *Result {
	opts.fillDefaults()
	mapping := make(map[string][]string, len(gs.All))
	for i := range gs.All {
		g := &gs.All[i]
		if len(g.Words) <= opts.MaxWords {
			mapping[g.Key] = g.Words
			continue
		}
		best := -1
		var bestFreq int64 = -1
		for _, a := range gs.Ancestors[i] {
			anc := &gs.All[a]
			if a == i || len(anc.Words) > opts.MaxWords {
				continue
			}
			if f := anc.FreqTotal(); f > bestFreq {
				best, bestFreq = a, f
			}
		}
		if best >= 0 {
			mapping[g.Key] = gs.All[best].Words
		} else {
			mapping[g.Key] = fallbackLocator(g.Words, opts.MaxWords)
		}
	}
	return newResult(gs, mapping, opts)
}

// scanTerm returns the Equation (2) scan contribution of storing member
// group g at locator group L: every query that reaches L's node and is at
// least as long as g's word set scans g's (possibly compressed) bytes.
func scanTerm(opts *Options, locator, member *Group) float64 {
	return opts.Model.Scan(opts.scanBytes(member.Bytes)) * float64(locator.FreqAtLeast(len(member.Words)))
}

// Refinement bounds of Optimize: each step re-solves the refineStep most
// misplaced groups, and at most refineRounds steps run. A 100k-ad corpus
// reaches the fixed point in three steps of this size.
const (
	refineStep   = 4096
	refineRounds = 16
)

// Optimize computes a full workload-adapted mapping (variant (c) of
// Figure 10) by greedy weighted set cover in placement form (see
// BuildPlacement for the instance): the batch lazy-heap greedy covers every
// movable group, then bounded incremental steps re-solve the most
// misplaced groups until none moves. The steps are the withdrawal-style
// refinement (Section V-B cites Hassin–Levin for improving on plain
// greedy): greedy's element-ratio rule leaves subset groups in cheap
// singleton nodes even when joining an ancestor's open node is globally
// cheaper, and a step prices exactly that move.
//
// Groups outside the instance, or that no chosen set holds, fall back to
// their own word sets or, when too long, synthetic locators — the
// relaxation Section V-A permits.
func Optimize(gs *Groups, opts Options) *Result {
	opts.fillDefaults()
	if gs.MaxQueryLen == 0 {
		// No workload information: no co-access signal to exploit, and
		// greedy would degenerate into merging everything. Identity
		// placement is the right default.
		return IdentityMapping(gs, opts)
	}
	p, err := BuildPlacement(gs, opts)
	if err != nil {
		// Every element is numbered from a set that holds it, so the
		// instance is valid by construction.
		panic("optimize: " + err.Error())
	}
	assign := p.PC.GreedyAssign()
	for round := 0; round < refineRounds; round++ {
		next, moved := p.PC.IncrementalStep(assign, refineStep)
		if moved == 0 {
			break
		}
		assign = next
	}
	return newResult(gs, p.MappingFromAssignment(assign), opts)
}

// EvaluateMapping returns Cost_Node(WL, M) for an arbitrary valid mapping
// that covers every group.
func EvaluateMapping(gs *Groups, mapping map[string][]string, opts Options) float64 {
	opts.fillDefaults()
	cost, _ := evaluateNodeCost(gs, mappedLocator(mapping), opts)
	return cost
}

// EvaluateLocator is EvaluateMapping for the mapping a built index holds,
// read through its Locator (core.Index.Locator): e.g. to price the
// placement an index serves, or how far a drifted layout (online inserts
// since the last optimization) is from fresh optimality. It also returns
// the number of nodes that mapping makes of the groups.
func EvaluateLocator(gs *Groups, locator func(words []string) []string, opts Options) (cost float64, nodes int) {
	opts.fillDefaults()
	return evaluateNodeCost(gs, func(g *Group) []string { return locator(g.Words) }, opts)
}

// evaluateNodeCost computes Cost_Node(WL, M): for each node, the frequency
// of queries reaching its locator times a random access, plus each member
// group's bytes scanned by the queries long enough to reach it. Locators
// that are existing groups use their exact histograms; synthetic locators
// conservatively inherit the histogram of their cheapest descendant group.
// locate returns each group's locator. The second result is the number of
// nodes the mapping produces.
func evaluateNodeCost(gs *Groups, locate func(*Group) []string, opts Options) (total float64, numNodes int) {
	type nodeAgg struct {
		locIdx  int // -1 for synthetic
		members []int
	}
	nodes := make(map[string]*nodeAgg)
	for g := range gs.All {
		lk := textnorm.SetKey(locate(&gs.All[g]))
		n := nodes[lk]
		if n == nil {
			li := -1
			if idx, ok := gs.ByKey[lk]; ok {
				li = idx
			}
			n = &nodeAgg{locIdx: li}
			nodes[lk] = n
		}
		n.members = append(n.members, g)
	}
	for _, n := range nodes {
		var loc *Group
		if n.locIdx >= 0 {
			loc = &gs.All[n.locIdx]
		} else {
			// Synthetic locator: approximate its access frequency by the
			// highest-frequency member (a superset of the locator, so a
			// lower bound on queries that reach it).
			var best *Group
			for _, g := range n.members {
				if best == nil || gs.All[g].FreqTotal() > best.FreqTotal() {
					best = &gs.All[g]
				}
			}
			loc = best
		}
		total += float64(loc.FreqTotal()) * opts.Model.RandomCost()
		for _, g := range n.members {
			total += scanTerm(&opts, loc, &gs.All[g])
		}
	}
	return total, len(nodes)
}

// HashCost computes Cost_Hash(WL): the mapping-independent cost of the
// subset lookups against H (Section V-A). lookups(n) must return the probe
// count for a query of n words (core.Index.LookupsForQueryLength).
func HashCost(gs *Groups, totalFreqByLen []int64, model costmodel.Model, memHash int, lookups func(int) int) float64 {
	total := 0.0
	for l, f := range totalFreqByLen {
		if f == 0 {
			continue
		}
		total += float64(f) * float64(lookups(l)) * (model.RandomCost() + model.Scan(memHash))
	}
	return total
}

package memsim

import (
	"adindex/internal/core"
	"adindex/internal/corpus"
)

// Branch-site identifiers (standing for the branch instructions of the
// query loop).
const (
	siteHashHit      = 1 // "did the probed slot hold a node?"
	siteScanContinue = 2 // "scan the next record in this node?"
)

// IndexLayout models the physical memory layout of a built broad-match
// index: an open-addressed hash table array followed by a node arena.
// Replaying a workload against two layouts (with and without re-mapping)
// reproduces the Section VII-C hardware-counter comparison.
type IndexLayout struct {
	maxWords      int
	maxQueryWords int
	df            map[string]int

	tableBase uint64
	slotBytes uint64
	numSlots  uint64

	arenaBase uint64
	nodes     map[uint64]*nodeLayout // locator hash -> layout
	// TableBytes and ArenaBytes expose the modeled footprint.
	TableBytes uint64
	ArenaBytes uint64
}

type nodeLayout struct {
	addr uint64
	// recLens[i] / recEnd[i]: word count of record i and the cumulative
	// byte offset after it (records in node order).
	recLens []int
	recEnd  []int
}

// BuildLayout lays out base: its nodes in node order, each node's records
// in node order, queries prepared with base's vocabulary and
// MaxWords/MaxQueryWords. The layout copies what it reads of base.
func BuildLayout(base *core.Index) *IndexLayout {
	o := base.Options()
	l := &IndexLayout{
		maxWords:      o.MaxWords,
		maxQueryWords: o.MaxQueryWords,
		df:            base.DocFreqs(),
		tableBase:     1 << 20,
		slotBytes:     16,
		nodes:         make(map[uint64]*nodeLayout, base.NumNodes()),
	}
	// Hash table sizing: next power of two above nodes * 4/3.
	l.numSlots = 1
	for l.numSlots < uint64(base.NumNodes())*4/3+1 {
		l.numSlots <<= 1
	}
	l.TableBytes = l.numSlots * l.slotBytes
	l.arenaBase = l.tableBase + l.TableBytes + (1 << 20)

	addr := l.arenaBase
	base.Nodes(func(h uint64, records []corpus.Ad) {
		nl := &nodeLayout{addr: addr}
		end := 0
		for i := range records {
			end += records[i].Size()
			nl.recLens = append(nl.recLens, len(records[i].Words))
			nl.recEnd = append(nl.recEnd, end)
		}
		l.nodes[h] = nl
		addr += uint64(end)
	})
	l.ArenaBytes = addr - l.arenaBase
	return l
}

// NumNodes returns the number of laid-out data nodes.
func (l *IndexLayout) NumNodes() int { return len(l.nodes) }

// ReplayQuery simulates the memory accesses and branches of one
// broad-match query: every subset probe touches its hash slot; hits scan
// the node up to the early-termination point.
func (l *IndexLayout) ReplayQuery(sim *Simulator, queryWords []string) {
	q := core.PrepareQuery(nil, queryWords, l.df, l.maxQueryWords)
	if len(q) == 0 {
		return
	}
	k := l.maxWords
	if k > len(q) {
		k = len(q)
	}
	visited := make(map[uint64]struct{}, 8)
	var rec func(start int, h uint64, size int)
	rec = func(start int, h uint64, size int) {
		for i := start; i < len(q); i++ {
			nh := core.ExtendHash(h, size == 0, q[i])
			slot := nh % l.numSlots
			sim.Access(l.tableBase+slot*l.slotBytes, int(l.slotBytes))
			node, hit := l.nodes[nh]
			sim.Branch(siteHashHit, hit)
			if hit {
				if _, dup := visited[nh]; !dup {
					visited[nh] = struct{}{}
					l.scanNode(sim, node, len(q))
				}
			}
			if size+1 < k {
				rec(i+1, nh, size+1)
			}
		}
	}
	rec(0, core.HashSeed, 0)
}

func (l *IndexLayout) scanNode(sim *Simulator, n *nodeLayout, qlen int) {
	prev := 0
	for i, wl := range n.recLens {
		if wl > qlen {
			sim.Branch(siteScanContinue, false)
			return
		}
		sim.Branch(siteScanContinue, true)
		sim.Access(n.addr+uint64(prev), n.recEnd[i]-prev)
		prev = n.recEnd[i]
	}
	// Loop fell off the end of the node.
	sim.Branch(siteScanContinue, false)
}

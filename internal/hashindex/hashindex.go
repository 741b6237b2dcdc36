// Package hashindex implements the compressed lookup structure of Section
// VI: the hash table H is replaced by two compressed bit arrays —
//
//   - B^sig, of length 2^s, whose i-th bit is set iff some data node's
//     locator hash has s-bit suffix i; and
//   - B^off, of length equal to the node arena, whose j-th bit is set iff
//     a data node starts at arena byte j —
//
// so that looking up a locator W reduces to
//
//	offset = select1(B^off, rank1(B^sig, suffix(wordhash(W)))).
//
// Data nodes are front-coded (internal/compress) and stored consecutively
// in arena order of their hash suffixes; nodes whose locators share a
// suffix are merged, exactly as the paper merges colliding nodes.
package hashindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"adindex/internal/bitvec"
	"adindex/internal/compress"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// Options configures the compressed index.
type Options struct {
	// SuffixBits is s, the hash-suffix width. Zero selects it
	// automatically via SelectSuffixBits.
	SuffixBits int
}

// tradeoff is the λ of the automatic suffix selection: modeled extra scan
// bytes per lookup are worth λ bits of space each.
const tradeoff = 64

// Index is the immutable compressed broad-match index.
type Index struct {
	suffixBits    int
	maxWords      int
	maxQueryWords int
	mask          uint64
	sig           *bitvec.Vector
	off           *bitvec.Sparse
	arena         []byte
	vocab         map[string]int // document frequencies for query preparation
}

// Build reads the compressed index off a built core index: its data nodes
// in node order, their records in node order, its vocabulary and its
// MaxWords/MaxQueryWords. Only the directory is new: nodes whose locator
// hashes share an s-bit suffix merge into one arena node, as the paper
// merges colliding nodes. The result shares nothing with base.
func Build(base *core.Index, opts Options) (*Index, error) {
	type baseNode struct {
		hash    uint64
		records []corpus.Ad
	}
	var nodes []baseNode
	total := 0
	base.Nodes(func(h uint64, records []corpus.Ad) {
		nodes = append(nodes, baseNode{h, records})
		total += compress.RawSize(records)
	})
	if opts.SuffixBits == 0 {
		opts.SuffixBits = SelectSuffixBits(len(nodes), total, tradeoff)
	}
	if opts.SuffixBits < 1 || opts.SuffixBits > 30 {
		return nil, fmt.Errorf("hashindex: SuffixBits %d out of range [1,30]", opts.SuffixBits)
	}
	mask := uint64(1)<<uint(opts.SuffixBits) - 1
	o := base.Options()
	ix := &Index{
		suffixBits:    opts.SuffixBits,
		maxWords:      o.MaxWords,
		maxQueryWords: o.MaxQueryWords,
		mask:          mask,
		sig:           bitvec.New(1 << uint(opts.SuffixBits)),
		vocab:         base.DocFreqs(),
	}

	// Arena order is suffix order; a run of nodes sharing a suffix is one
	// merged node, its records kept in node order.
	slices.SortStableFunc(nodes, func(a, b baseNode) int { return cmp.Compare(a.hash&mask, b.hash&mask) })
	var starts []int
	for i := 0; i < len(nodes); {
		sw, records := nodes[i].hash&mask, nodes[i].records
		j := i + 1
		if j < len(nodes) && nodes[j].hash&mask == sw {
			records = slices.Clone(records)
			for ; j < len(nodes) && nodes[j].hash&mask == sw; j++ {
				records = append(records, nodes[j].records...)
			}
			slices.SortStableFunc(records, func(a, b corpus.Ad) int { return core.CompareRecords(&a, &b) })
		}
		ix.sig.Set(int(sw))
		starts = append(starts, len(ix.arena))
		ix.arena = append(ix.arena, compress.EncodeNode(records)...)
		i = j
	}
	ix.sig.BuildRank()
	// B^off needs one position per node; an empty corpus gets a 1-bit
	// placeholder array.
	offLen := len(ix.arena)
	if offLen == 0 {
		offLen = 1
	}
	var err error
	ix.off, err = bitvec.NewSparse(offLen, starts)
	if err != nil {
		return nil, fmt.Errorf("hashindex: building B^off: %w", err)
	}
	return ix, nil
}

// nodeAt returns the arena slice of the node whose locator hash suffix is
// sw, or nil.
func (ix *Index) nodeAt(sw uint64) []byte {
	if !ix.sig.Get(int(sw)) {
		return nil
	}
	r := ix.sig.Rank1(int(sw)) // nodes with smaller suffix
	start := ix.off.Select1(r + 1)
	end := len(ix.arena)
	if next := ix.off.Select1(r + 2); next >= 0 {
		end = next
	}
	return ix.arena[start:end]
}

// BroadMatch returns the ads matching the query under broad-match
// semantics, ordered by ID. Results are decoded copies (the arena is
// immutable). counters accounts arena bytes actually decoded, per the
// cost model.
func (ix *Index) BroadMatch(queryWords []string, counters *costmodel.Counters) ([]corpus.Ad, error) {
	q, _ := core.PrepareQuery(nil, queryWords, ix.vocab, ix.maxQueryWords)
	if counters != nil {
		counters.Queries++
	}
	if len(q) == 0 {
		return nil, nil
	}
	k := ix.maxWords
	if k > len(q) {
		k = len(q)
	}
	var matches []corpus.Ad
	var visitedArr [24]uint64
	visited := visitedArr[:0]
	var decodeErr error
	var rec func(start int, h uint64, size int)
	rec = func(start int, h uint64, size int) {
		for i := start; i < len(q) && decodeErr == nil; i++ {
			nh := core.ExtendHash(h, size == 0, q[i])
			sw := nh & ix.mask
			if counters != nil {
				counters.HashProbes++
				counters.RandomAccesses++
				counters.BytesScanned += 2 // B^sig bit + rank directory touch
			}
			// Only hits need dedup (a node reachable via two colliding or
			// re-mapped subset suffixes); misses are harmless to re-probe.
			dup := false
			for _, vs := range visited {
				if vs == sw {
					dup = true
					break
				}
			}
			if !dup {
				if data := ix.nodeAt(sw); data != nil {
					visited = append(visited, sw)
					if counters != nil {
						counters.RandomAccesses++
						counters.NodesVisited++
					}
					matches, decodeErr = ix.scanNode(data, q, counters, matches)
				}
			}
			if size+1 < k {
				rec(i+1, nh, size+1)
			}
		}
	}
	rec(0, core.HashSeed, 0)
	if decodeErr != nil {
		return nil, decodeErr
	}
	slices.SortFunc(matches, func(a, b corpus.Ad) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	if counters != nil {
		counters.Matches += int64(len(matches))
	}
	return matches, nil
}

// BroadMatchText is BroadMatch on raw query text.
func (ix *Index) BroadMatchText(query string, counters *costmodel.Counters) ([]corpus.Ad, error) {
	return ix.BroadMatch(textnorm.WordSet(query), counters)
}

func (ix *Index) scanNode(data []byte, q []string, counters *costmodel.Counters, matches []corpus.Ad) ([]corpus.Ad, error) {
	d := compress.NewDecoder(data)
	for d.More() {
		ad, err := d.Next()
		if err != nil {
			return matches, fmt.Errorf("hashindex: corrupt node: %w", err)
		}
		if len(ad.Words) > len(q) {
			// Early termination: only the bytes up to here were read.
			break
		}
		if counters != nil {
			counters.PhrasesChecked++
		}
		if textnorm.IsSubset(ad.Words, q) {
			matches = append(matches, ad)
		}
	}
	if counters != nil {
		counters.BytesScanned += int64(d.Offset())
	}
	return matches, nil
}

// Sizes describes the memory footprint of the structure and the hash-table
// baseline it replaces (Section VI's 9:1 example).
type Sizes struct {
	SuffixBits     int
	SigBytes       int     // plain B^sig with rank directory
	SigEntropyBits float64 // n·H_0(B^sig) bound
	OffBytes       int     // sparse B^off
	OffEntropyBits float64 // n·H_0(B^off) bound
	ArenaBytes     int
	TotalBytes     int
	// HashTableBytes estimates the replaced hash table: (4-byte signature
	// + 4-byte offset) per node with a 4/3 load-factor blow-up, as in the
	// paper's example.
	HashTableBytes int
	Nodes          int
}

// Sizes reports the footprint breakdown.
func (ix *Index) Sizes() Sizes {
	nodes := ix.off.Ones()
	s := Sizes{
		SuffixBits:     ix.suffixBits,
		SigBytes:       ix.sig.SizeBytes(),
		SigEntropyBits: bitvec.CompressedSizeBound(ix.sig.Len(), ix.sig.Ones()),
		OffBytes:       ix.off.SizeBytes(),
		OffEntropyBits: bitvec.CompressedSizeBound(ix.off.Len(), nodes),
		ArenaBytes:     len(ix.arena),
		Nodes:          nodes,
		HashTableBytes: nodes * 8 * 4 / 3,
	}
	s.TotalBytes = s.SigBytes + s.OffBytes
	return s
}

// NumNodes returns the number of (merged) data nodes.
func (ix *Index) NumNodes() int { return ix.off.Ones() }

// ArenaBytes returns the size of the encoded node arena.
func (ix *Index) ArenaBytes() int { return len(ix.arena) }

// SelectSuffixBits chooses s by the Section VI trade-off: a shorter suffix
// shrinks B^sig but merges more nodes, adding extra scan bytes to lookups;
// a longer one does the opposite. The score is
//
//	spaceBits(s) + tradeoff · expectedExtraBytesPerLookup(s) · numNodes,
//
// i.e. tradeoff is the assumed number of lifetime lookups per node, each
// extra byte costing one bit-equivalent of space. Unlike the per-node
// merge decisions of Section V, collisions here cannot be controlled
// individually (the paper's caveat (a)), so the expectation is over
// uniformly random node placement.
func SelectSuffixBits(numNodes, arenaBytes int, tradeoff float64) int {
	if numNodes == 0 {
		return 8
	}
	avgNode := float64(arenaBytes) / float64(numNodes)
	bestS, bestScore := 8, math.Inf(1)
	for s := 8; s <= 28; s++ {
		slots := math.Pow(2, float64(s))
		// Expected number of distinct occupied slots for numNodes balls.
		occupied := slots * (1 - math.Pow(1-1/slots, float64(numNodes)))
		merged := float64(numNodes) - occupied
		if merged < 0 {
			merged = 0
		}
		// Each merged node adds ~avgNode extra bytes to some lookup path;
		// amortized per lookup that is merged/numNodes · avgNode.
		extraBytes := merged / float64(numNodes) * avgNode
		spaceBits := slots + bitvec.CompressedSizeBound(arenaBytes, numNodes)
		score := spaceBits + tradeoff*extraBytes*float64(numNodes)
		if score < bestScore {
			bestS, bestScore = s, score
		}
	}
	return bestS
}

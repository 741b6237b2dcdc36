// Word-set signatures: the branch-free prefilter in front of the exact
// subset scan. Each word contributes two bits (derived from its FNV hash)
// to a 64-bit Bloom-style signature; a record's signature is the OR over
// its words. Subset containment implies bitwise containment, so
//
//	recSig &^ querySig != 0  ⇒  record is not a subset of the query
//
// with no false negatives ever. False positives (signature survives,
// subset fails) are resolved by the exact subset check on word IDs that
// follows; the differential and fuzz suites pin the equivalence against a
// naive scan.
package core

// WordSignatureHash returns the 64-bit FNV-1a hash of a single word, from
// which its signature bits are derived. It equals WordHash([]string{w}).
func WordSignatureHash(w string) uint64 {
	return hashExtend(fnvOffset64, true, w)
}

// wordSigBits returns the two signature bits of a word hash. Two bits per
// word (a k=2 Bloom filter) keeps short-phrase signatures sparse enough to
// reject aggressively while long phrases — which the word-count early-exit
// already bounds — may saturate harmlessly.
func wordSigBits(h uint64) uint64 {
	return 1<<(h&63) | 1<<((h>>6)&63)
}

// SetSignature returns the 64-bit word-set signature of a canonical word
// set: the OR of every word's signature bits.
func SetSignature(words []string) uint64 {
	var sig uint64
	for _, w := range words {
		sig |= wordSigBits(WordSignatureHash(w))
	}
	return sig
}

// nodeSet is a small open-addressed set of visited data nodes, keyed by
// the node's table value (its number plus one, never 0). It replaces the
// linear dedup scan of the visited slice, which made long queries
// O(probes × nodes visited) — quadratic at MaxQueryWords against dense
// tables. The slot arrays live in a pooled Scratch: they grow to the
// high-water mark of distinct nodes per query and are then reused
// allocation-free. A slot is occupied only when its generation stamp
// matches the current one, so reset is O(1) — no per-query clear — and
// the set holds no pointers, so a pooled scratch never pins nodes of a
// retired index generation.
type nodeSet struct {
	ids  []uint64 // power-of-two length
	gens []uint32 // gens[i] == gen marks ids[i] live
	gen  uint32
	n    int
}

const nodeSetMinSlots = 32

// add inserts id, reporting whether it was absent.
func (s *nodeSet) add(id uint64) bool {
	if 4*(s.n+1) > 3*len(s.ids) {
		s.grow()
	}
	mask := uint64(len(s.ids) - 1)
	i := (id * probeFib) & mask
	for {
		if s.gens[i] != s.gen {
			s.ids[i] = id
			s.gens[i] = s.gen
			s.n++
			return true
		}
		if s.ids[i] == id {
			return false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the slot arrays (or allocates the initial ones) and
// re-inserts the live slots.
func (s *nodeSet) grow() {
	oldIDs, oldGens, oldGen := s.ids, s.gens, s.gen
	size := 2 * len(oldIDs)
	if size < nodeSetMinSlots {
		size = nodeSetMinSlots
	}
	s.ids = make([]uint64, size)
	s.gens = make([]uint32, size)
	s.gen = 1
	s.n = 0
	for i := range oldIDs {
		if oldGens[i] == oldGen {
			s.add(oldIDs[i])
		}
	}
}

// reset empties the set in O(1) by advancing the generation, keeping
// capacity. On the (rare) 32-bit wrap the stamp array is cleared so stale
// stamps cannot read as live.
func (s *nodeSet) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		clear(s.gens)
		s.gen = 1
	}
}

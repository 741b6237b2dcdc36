package core

import (
	"slices"
	"sort"
	"strings"

	"adindex/internal/corpus"
)

// node is a data node (Figure 4): the variable-length record holding every
// advertisement mapped to one hash key. Records are kept ordered by the
// number of words in their phrases, so query processing can stop scanning
// as soon as it encounters a phrase longer than the query (Section V-A).
//
// Because distinct word sets can collide under WordHash, and because
// re-mapping deliberately co-locates different word sets, a node may hold
// records from several locators; each record carries its exact word set.
//
// The record array is mirrored by columnar (structure-of-arrays) side
// tables so the broad-match scan never touches the wide Ad structs for
// records the query cannot match: a flat signature column swept
// branch-free rejects most records on a single 64-bit load, the word-count
// column drives the length early-exit without pointer-chasing, and the
// packed per-record word-hash column verifies subset containment on
// integers before the exact string check runs. All columns are
// index-aligned with records and maintained by insert/removeAt.
type node struct {
	// id identifies the node uniquely within its index, assigned at
	// creation. Query scratch state dedupes visited nodes by this id
	// (nodes are shared by concurrent readers, so an in-node mark is not
	// an option).
	id uint64
	// records, ordered by (len(Words), set key, ID). Grouping by set key
	// within a length class keeps all ads of one word set contiguous
	// (mapping condition IV), which the optimizer relies on.
	records []corpus.Ad
	// sigs[i] is the 64-bit word-set signature of records[i] (see
	// SetSignature): a Bloom-style filter with the guarantee that
	// sigs[i] &^ querySignature != 0 implies records[i] cannot
	// broad-match the query.
	sigs []uint64
	// wcs[i] is len(records[i].Words); the scan's length early-exit binary
	// searches this flat column instead of dereferencing records.
	wcs []uint32
	// wordHashes packs the sorted 64-bit word hashes of every record
	// back-to-back; record i owns wordHashes[hashOff[i]:hashOff[i+1]].
	// hashOff has len(records)+1 entries whenever the node is non-empty.
	wordHashes []uint64
	hashOff    []uint32
	// sameKey[i] marks records[i] as having the same word set as
	// records[i-1] (set-key grouping makes such records adjacent). A
	// subset verdict depends only on the word set, so the scan verifies
	// each run once and reuses the verdict across the run.
	sameKey []bool
	// bytes is the cached total of record sizes, used by the cost model.
	bytes int
}

// insert adds ad keeping the order invariant across records and all
// columnar mirrors.
func (n *node) insert(ad corpus.Ad) {
	i := sort.Search(len(n.records), func(i int) bool {
		return !recordLess(&n.records[i], &ad)
	})
	n.records = slices.Insert(n.records, i, ad)
	n.sigs = slices.Insert(n.sigs, i, SetSignature(ad.Words))
	n.wcs = slices.Insert(n.wcs, i, uint32(len(ad.Words)))
	n.sameKey = slices.Insert(n.sameKey, i, false)
	n.sameKey[i] = i > 0 && n.records[i].SetKey() == n.records[i-1].SetKey()
	if i+1 < len(n.records) {
		n.sameKey[i+1] = n.records[i+1].SetKey() == n.records[i].SetKey()
	}

	wh := appendSortedWordHashes(nil, ad.Words)
	if len(n.hashOff) == 0 {
		n.hashOff = append(n.hashOff, 0)
	}
	n.wordHashes = slices.Insert(n.wordHashes, int(n.hashOff[i]), wh...)
	n.hashOff = slices.Insert(n.hashOff, i+1, n.hashOff[i]+uint32(len(wh)))
	for j := i + 2; j < len(n.hashOff); j++ {
		n.hashOff[j] += uint32(len(wh))
	}
	n.bytes += ad.Size()
}

// recHashes returns the sorted word hashes of record i.
func (n *node) recHashes(i int) []uint64 {
	return n.wordHashes[n.hashOff[i]:n.hashOff[i+1]]
}

// find returns the position of a record with the given ID and set key, or
// -1. The (word count, set key, ID) order invariant makes the position
// binary-searchable, so delete-heavy churn costs O(log n) to locate plus
// the splice, not a full node scan per tombstone.
func (n *node) find(id uint64, key string) int {
	wc := uint32(keyWordCount(key))
	i := sort.Search(len(n.records), func(i int) bool {
		if n.wcs[i] != wc {
			return n.wcs[i] > wc
		}
		if rk := n.records[i].SetKey(); rk != key {
			return rk > key
		}
		return n.records[i].ID >= id
	})
	if i >= len(n.records) || n.wcs[i] != wc ||
		n.records[i].ID != id || n.records[i].SetKey() != key {
		return -1
	}
	return i
}

// lastOfSet reports whether record i is the only record of its word set:
// the records of one set are adjacent, and sameKey marks the joints.
func (n *node) lastOfSet(i int) bool {
	return !n.sameKey[i] && (i+1 == len(n.records) || !n.sameKey[i+1])
}

// removeAt splices record i out of the record array and every columnar
// mirror.
func (n *node) removeAt(i int) {
	n.bytes -= n.records[i].Size()
	k := n.hashOff[i+1] - n.hashOff[i]
	n.records = slices.Delete(n.records, i, i+1)
	n.sigs = slices.Delete(n.sigs, i, i+1)
	n.wcs = slices.Delete(n.wcs, i, i+1)
	n.sameKey = slices.Delete(n.sameKey, i, i+1)
	if i < len(n.records) {
		n.sameKey[i] = i > 0 && n.records[i].SetKey() == n.records[i-1].SetKey()
	}
	n.wordHashes = slices.Delete(n.wordHashes, int(n.hashOff[i]), int(n.hashOff[i]+k))
	n.hashOff = slices.Delete(n.hashOff, i+1, i+2)
	for j := i + 1; j < len(n.hashOff); j++ {
		n.hashOff[j] -= k
	}
}

// keyWordCount returns the number of words in a canonical set key
// (SetKey joins words with the 0x1f unit separator).
func keyWordCount(key string) int {
	if key == "" {
		return 0
	}
	return strings.Count(key, "\x1f") + 1
}

// recordLess orders records by word count, then set key, then ID.
func recordLess(a, b *corpus.Ad) bool {
	if la, lb := len(a.Words), len(b.Words); la != lb {
		return la < lb
	}
	ka, kb := a.SetKey(), b.SetKey()
	if ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

// checkOrdered verifies the node's order invariant (used by tests and
// integrity checks).
func (n *node) checkOrdered() bool {
	for i := 1; i < len(n.records); i++ {
		if recordLess(&n.records[i], &n.records[i-1]) {
			return false
		}
	}
	return true
}

// checkColumns verifies that every columnar mirror agrees with the record
// array (used by tests and integrity checks).
func (n *node) checkColumns() bool {
	if len(n.sigs) != len(n.records) || len(n.wcs) != len(n.records) ||
		len(n.sameKey) != len(n.records) {
		return false
	}
	if len(n.records) > 0 && len(n.hashOff) != len(n.records)+1 {
		return false
	}
	for i := range n.records {
		if n.sigs[i] != SetSignature(n.records[i].Words) {
			return false
		}
		if int(n.wcs[i]) != len(n.records[i].Words) {
			return false
		}
		wh := appendSortedWordHashes(nil, n.records[i].Words)
		if !slices.Equal(n.recHashes(i), wh) {
			return false
		}
		wantSame := i > 0 && n.records[i].SetKey() == n.records[i-1].SetKey()
		if n.sameKey[i] != wantSame {
			return false
		}
	}
	return true
}

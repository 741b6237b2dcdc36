package core

import (
	"slices"
	"strings"
)

// vocab is an index's word vocabulary: every word an indexed record has
// held gets a uint32 ID, and df is indexed by it. Records store their
// words as IDs, so the index holds each word's bytes once. The bulk
// loader numbers the corpus' words in sorted order, as stellr's Build
// freezes the words its builder collected (SNIPPETS.md); Insert appends a
// word it has not seen. A word whose last record is deleted keeps its ID
// with df 0, which every reader treats as absent.
type vocab struct {
	ids   map[string]uint32
	words []string
	df    []uint32
	// sig holds each word's signature bits: a word set's signature
	// (SetSignature) is the OR over its IDs.
	sig []uint64
}

func newVocab() vocab { return vocab{ids: map[string]uint32{}} }

// id returns the ID of w, if w is in the vocabulary.
func (v *vocab) id(w string) (uint32, bool) {
	id, ok := v.ids[w]
	return id, ok
}

// freq returns the document frequency of w: 0 when w is absent.
func (v *vocab) freq(w string) int {
	if id, ok := v.ids[w]; ok {
		return int(v.df[id])
	}
	return 0
}

// intern returns the ID of w, numbering it first if it is new. The
// vocabulary keeps a copy of w, never the caller's string.
func (v *vocab) intern(w string) uint32 {
	if id, ok := v.ids[w]; ok {
		return id
	}
	w = strings.Clone(w)
	id := uint32(len(v.words))
	v.words = append(v.words, w)
	v.df = append(v.df, 0)
	v.sig = append(v.sig, wordSigBits(WordSignatureHash(w)))
	v.ids[w] = id
	return id
}

// signature returns SetSignature of the word set with the given IDs.
func (v *vocab) signature(ids []uint32) uint64 {
	var sig uint64
	for _, id := range ids {
		sig |= v.sig[id]
	}
	return sig
}

// appendIDs appends the IDs of words to dst; ok is false, and dst
// unusable, when a word is not in the vocabulary.
func (v *vocab) appendIDs(dst []uint32, words []string) ([]uint32, bool) {
	for _, w := range words {
		id, ok := v.ids[w]
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// buildVocab freezes the per-chunk document frequencies the bulk loader
// counted into one vocabulary: the words in sorted order, their bytes
// packed into one string so that no word keeps its input alive.
func buildVocab(dfs []map[string]int) vocab {
	total := dfs[0]
	for _, df := range dfs[1:] {
		for w, c := range df {
			total[w] += c
		}
	}
	words := make([]string, 0, len(total))
	size := 0
	for w := range total {
		words = append(words, w)
		size += len(w)
	}
	slices.Sort(words)
	var packed strings.Builder
	packed.Grow(size)
	for _, w := range words {
		packed.WriteString(w)
	}
	all := packed.String()
	v := vocab{ids: make(map[string]uint32, len(words)), words: words, df: make([]uint32, len(words)), sig: make([]uint64, len(words))}
	at := 0
	for i, w := range words {
		v.df[i] = uint32(total[w])
		v.sig[i] = wordSigBits(WordSignatureHash(w))
		words[i] = all[at : at+len(w)]
		at += len(w)
		v.ids[words[i]] = uint32(i)
	}
	return v
}

// bytes estimates the memory the vocabulary holds: the words and their
// headers, the map (a key header, a value and about a word of overhead
// per entry), df and the signature bits.
func (v *vocab) bytes() int {
	n := cap(v.words)*16 + cap(v.df)*4 + cap(v.sig)*8 + len(v.ids)*(16+4+8)
	for _, w := range v.words {
		n += len(w)
	}
	return n
}

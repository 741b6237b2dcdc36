package core

import (
	"strings"

	"adindex/internal/corpus"
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

// loadVocab is the vocabulary of an index the bulk loader builds over in:
// in's own where counts is nil; otherwise the words of in that the
// per-chunk document frequencies counts finds in at least one loaded ad,
// in the same order. remap maps in's word IDs to the index's, and is nil
// where they are the same.
func loadVocab(in *corpus.Columns, counts [][]uint32) (v vocab, remap []uint32) {
	words, df := in.Words, in.DF
	if counts != nil {
		total := counts[0]
		for _, c := range counts[1:] {
			for w, k := range c {
				total[w] += k
			}
		}
		used := 0
		for _, k := range total {
			if k > 0 {
				used++
			}
		}
		words, df, remap = make([]string, 0, used), make([]uint32, 0, used), make([]uint32, len(total))
		for w, k := range total {
			if k > 0 {
				remap[w] = uint32(len(words))
				words, df = append(words, in.Words[w]), append(df, k)
			}
		}
	} else {
		words, df = append(make([]string, 0, len(words)), words...), append(make([]uint32, 0, len(df)), df...)
	}
	v = vocab{ids: make(map[string]uint32, len(words)), words: words, df: df, sig: make([]uint64, len(words))}
	for i, w := range words {
		v.sig[i] = wordSigBits(WordSignatureHash(w))
		v.ids[w] = uint32(i)
	}
	return v, remap
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

package core

import (
	"fmt"
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
	words []string
	df    []uint32
	// sig holds each word's signature bits: a word set's signature
	// (SetSignature) is the OR over its IDs.
	sig []uint64
	// succ is each word's successor filter: succBit of every word that
	// directly follows it in some locator, and startBit if it starts one.
	// A bit is set when a locator is registered (addPrefixes) and never
	// cleared; the next build recomputes the filter.
	succ []uint64
	// table finds a word's ID by its wordKey: open addressing, probed
	// linearly from the key's home, at most three quarters full. A slot
	// holds the key's top 32 bits above the ID + 1, 0 when empty; a word
	// whose top bits match is compared by its bytes.
	table []uint64
}

// startBit is the successor filter's bit for "starts a locator"; the
// other 63 bits are successors' (succBit).
const startBit = 1 << 63

// succBit is the bit of the word with the given ID in a successor filter.
func succBit(id uint32) uint64 { return 1 << (id % 63) }

// wordKey is the hash of the one-word set {w} (WordHash): the table's
// key for w, and the key subset enumeration probes H with for w alone.
func wordKey(w string) uint64 { return hashExtend(fnvOffset64, true, w) }

// find returns the ID of w, whose wordKey is h, if w is in the
// vocabulary.
func (v *vocab) find(h uint64, w string) (uint32, bool) {
	if len(v.table) == 0 {
		return 0, false
	}
	mask := uint64(len(v.table) - 1)
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		s := v.table[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == h>>32 && v.words[uint32(s)-1] == w {
			return uint32(s) - 1, true
		}
	}
}

// place enters word id, whose wordKey is h and which the table does not
// hold, into the table.
func (v *vocab) place(h uint64, id uint32) {
	mask := uint64(len(v.table) - 1)
	i := (h * probeFib) & mask
	for v.table[i] != 0 {
		i = (i + 1) & mask
	}
	v.table[i] = h>>32<<32 | uint64(id+1)
}

// fill enters every word into the table, which is empty and sized for
// them (tableSize).
func (v *vocab) fill() {
	for id, w := range v.words {
		v.place(wordKey(w), uint32(id))
	}
}

// id returns the ID of w, if w is in the vocabulary.
func (v *vocab) id(w string) (uint32, bool) { return v.find(wordKey(w), w) }

// freq returns the document frequency of w: 0 when w is absent.
func (v *vocab) freq(w string) int {
	if id, ok := v.id(w); ok {
		return int(v.df[id])
	}
	return 0
}

// intern returns the ID of w, numbering it first if it is new. The
// vocabulary keeps a copy of w, never the caller's string.
func (v *vocab) intern(w string) uint32 {
	h := wordKey(w)
	if id, ok := v.find(h, w); ok {
		return id
	}
	w = strings.Clone(w)
	id := uint32(len(v.words))
	v.words = append(v.words, w)
	v.df = append(v.df, 0)
	v.sig = append(v.sig, wordSigBits(WordSignatureHash(w)))
	v.succ = append(v.succ, 0)
	if size := tableSize(len(v.words)); size > len(v.table) {
		v.table = make([]uint64, size)
		v.fill()
	} else {
		v.place(h, id)
	}
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
		id, ok := v.id(w)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// loadVocab is the words, document frequencies and signature bits of the
// index the bulk loader builds over in: in's own where counts is nil;
// otherwise the words of in that the per-chunk document frequencies
// counts finds in at least one loaded ad, in the same order. remap maps
// in's word IDs to the index's, and is nil where they are the same. The
// loader carves the table and the successor filters once it knows every
// column's size.
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
	v = vocab{words: words, df: df, sig: make([]uint64, len(words))}
	for i, w := range words {
		v.sig[i] = wordSigBits(WordSignatureHash(w))
	}
	return v, remap
}

// check is CheckInvariants on the vocabulary: a frequency, signature bits
// and a successor filter per word, and a table that finds every word's ID
// and holds nothing else.
func (v *vocab) check() error {
	n := len(v.words)
	if len(v.df) != n || len(v.sig) != n || len(v.succ) != n {
		return fmt.Errorf("core: vocabulary of %d words, %d frequencies, %d signatures, %d successor filters", n, len(v.df), len(v.sig), len(v.succ))
	}
	if n > 0 && (len(v.table) < tableSize(n) || len(v.table)&(len(v.table)-1) != 0) {
		return fmt.Errorf("core: vocabulary table of %d slots for %d words", len(v.table), n)
	}
	full := 0
	for _, s := range v.table {
		if s != 0 {
			full++
		}
	}
	if full != n {
		return fmt.Errorf("core: vocabulary table holds %d entries for %d words", full, n)
	}
	for id, w := range v.words {
		if got, ok := v.id(w); !ok || got != uint32(id) {
			return fmt.Errorf("core: vocabulary word %q has ID %d, numbered %d", w, got, id)
		}
		if v.sig[id] != SetSignature([]string{w}) {
			return fmt.Errorf("core: vocabulary word %q has signature bits %x", w, v.sig[id])
		}
	}
	return nil
}

// bytes estimates the memory the vocabulary holds: the words and their
// headers, df, the signature bits, the successor filters and the table.
func (v *vocab) bytes() int {
	n := cap(v.words)*16 + cap(v.df)*4 + cap(v.sig)*8 + cap(v.succ)*8 + cap(v.table)*8
	for _, w := range v.words {
		n += len(w)
	}
	return n
}

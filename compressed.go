package adindex

import (
	"io"
	"slices"

	"adindex/internal/hashindex"
	"adindex/internal/textnorm"
)

// CompressedIndex is an immutable, compressed snapshot of an Index: data
// nodes are front-coded and the hash table is replaced by the succinct
// B^sig/B^off rank-select bit arrays of the paper's Section VI. It trades
// mutation and some lookup speed for a much smaller lookup structure.
type CompressedIndex struct {
	inner *hashindex.Index
}

// CompressedSizes breaks down the snapshot's memory footprint against the
// hash table it replaces.
type CompressedSizes struct {
	// SuffixBits is the chosen signature suffix width s.
	SuffixBits int
	// SigBytes/OffBytes are the footprints of the two bit arrays.
	SigBytes, OffBytes int
	// SigEntropyBits/OffEntropyBits are the n·H₀ compressed bounds.
	SigEntropyBits, OffEntropyBits float64
	// ArenaBytes is the front-coded node storage.
	ArenaBytes int
	// HashTableBytes estimates the conventional hash table replaced.
	HashTableBytes int
	// Nodes is the number of (suffix-merged) data nodes.
	Nodes int
}

// Snapshot builds a compressed snapshot of the index's current contents
// and layout. suffixBits selects the signature width; 0 picks it
// automatically from the space/latency trade-off model.
func (ix *Index) Snapshot(suffixBits int) (*CompressedIndex, error) {
	// Fold any pending mutation overlay so the base's mapping covers the
	// full corpus handed to the compressed builder.
	base := ix.foldedBase()
	ads := base.Ads()
	mapping := base.Mapping()
	opts := ix.opts.coreOptions()
	inner, err := hashindex.Build(ads, mapping, hashindex.Options{
		SuffixBits:    suffixBits,
		MaxWords:      opts.MaxWords,
		MaxQueryWords: opts.MaxQueryWords,
	})
	if err != nil {
		return nil, err
	}
	return &CompressedIndex{inner: inner}, nil
}

// BroadMatch returns the ads broad-matching the query, ordered by ID.
func (c *CompressedIndex) BroadMatch(query string) ([]Ad, error) {
	return c.inner.BroadMatchText(query, nil)
}

// ExactMatch returns ads whose bid phrase equals the query as a
// normalized token sequence. The compressed structure keeps no per-set
// directory, so candidates come from the broad-match probes and are
// filtered (Section III-B: "only the logic to match the query against the
// phrase stored in the data node has to be modified").
func (c *CompressedIndex) ExactMatch(query string) ([]Ad, error) {
	qTokens := textnorm.FoldDuplicates(textnorm.Tokenize(query))
	candidates, err := c.inner.BroadMatchText(query, nil)
	if err != nil {
		return nil, err
	}
	out := candidates[:0:0]
	for _, ad := range candidates {
		if slices.Equal(textnorm.FoldDuplicates(textnorm.Tokenize(ad.Phrase)), qTokens) {
			out = append(out, ad)
		}
	}
	return out, nil
}

// PhraseMatch returns ads whose bid phrase occurs in the query as an
// ordered contiguous token subsequence.
func (c *CompressedIndex) PhraseMatch(query string) ([]Ad, error) {
	qTokens := textnorm.Tokenize(query)
	candidates, err := c.inner.BroadMatchText(query, nil)
	if err != nil {
		return nil, err
	}
	out := candidates[:0:0]
	for _, ad := range candidates {
		if textnorm.ContainsContiguous(qTokens, textnorm.Tokenize(ad.Phrase)) {
			out = append(out, ad)
		}
	}
	return out, nil
}

// BroadMatchCounted is BroadMatch with memory-access accounting.
func (c *CompressedIndex) BroadMatchCounted(query string, counters *Counters) ([]Ad, error) {
	return c.inner.BroadMatchText(query, counters)
}

// WriteTo serializes the snapshot in a self-contained, versioned binary
// format; restore it with LoadSnapshot. It implements io.WriterTo.
func (c *CompressedIndex) WriteTo(w io.Writer) (int64, error) {
	return c.inner.WriteTo(w)
}

// LoadSnapshot restores a snapshot serialized by CompressedIndex.WriteTo.
func LoadSnapshot(r io.Reader) (*CompressedIndex, error) {
	inner, err := hashindex.Read(r)
	if err != nil {
		return nil, err
	}
	return &CompressedIndex{inner: inner}, nil
}

// Sizes reports the footprint breakdown.
func (c *CompressedIndex) Sizes() CompressedSizes {
	s := c.inner.Sizes()
	return CompressedSizes{
		SuffixBits:     s.SuffixBits,
		SigBytes:       s.SigBytes,
		OffBytes:       s.OffBytes,
		SigEntropyBits: s.SigEntropyBits,
		OffEntropyBits: s.OffEntropyBits,
		ArenaBytes:     s.ArenaBytes,
		HashTableBytes: s.HashTableBytes,
		Nodes:          s.Nodes,
	}
}

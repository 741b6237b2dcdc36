package adindex

import (
	"io"

	"adindex/internal/hashindex"
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
type CompressedSizes = hashindex.Sizes

// Snapshot builds a compressed snapshot of the index's current contents
// and layout, read off the index's own nodes. suffixBits selects the
// signature width; 0 picks it automatically from the space/latency
// trade-off model.
func (ix *Index) Snapshot(suffixBits int) (*CompressedIndex, error) {
	// Fold any pending mutation overlay so the base holds the full corpus.
	inner, err := hashindex.Build(ix.foldedBase(), hashindex.Options{SuffixBits: suffixBits})
	if err != nil {
		return nil, err
	}
	return &CompressedIndex{inner: inner}, nil
}

// BroadMatch returns the ads broad-matching the query, ordered by ID.
// counters, when non-nil, accumulates the query's memory-access accounting.
func (c *CompressedIndex) BroadMatch(query string, counters *Counters) ([]Ad, error) {
	return c.inner.BroadMatchText(query, counters)
}

// WriteTo serializes the snapshot in a self-contained, versioned binary
// format; restore it with LoadSnapshot. One snapshot always writes the
// same bytes. It implements io.WriterTo.
func (c *CompressedIndex) WriteTo(w io.Writer) (int64, error) {
	return c.inner.WriteTo(w)
}

// ErrMalformedSnapshot is wrapped by every error LoadSnapshot returns.
var ErrMalformedSnapshot = hashindex.ErrMalformedSnapshot

// LoadSnapshot restores a snapshot serialized by CompressedIndex.WriteTo.
// It allocates as the bytes arrive, never on a count it has not read the
// bytes for.
func LoadSnapshot(r io.Reader) (*CompressedIndex, error) {
	inner, err := hashindex.Read(r)
	if err != nil {
		return nil, err
	}
	return &CompressedIndex{inner: inner}, nil
}

// Sizes reports the footprint breakdown.
func (c *CompressedIndex) Sizes() CompressedSizes { return c.inner.Sizes() }

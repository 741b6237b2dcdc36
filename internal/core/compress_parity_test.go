package core

import (
	"slices"
	"testing"

	"adindex/internal/compress"
	"adindex/internal/corpus"
)

// TestCompressColumnarParity pins differential parity between node
// compression and the record columns: front-coding a node's records and
// decoding them back must reproduce exactly the record order the node
// held, and the decoded records must rebuild the node's signature,
// word-count, word and size columns value for value. This is the
// invariant that lets a paged layout drop the columns on encode and
// rebuild them on decode without a differential risk.
func TestCompressColumnarParity(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 87})
	// Small MaxWords forces re-mapping, so nodes hold mixed-length record
	// groups — the interesting shape for both front-coding and columns.
	ix := New(c.Ads, Options{MaxWords: 3})

	nodes := 0
	ix.eachNode(func(_ uint64, k uint32) {
		nodes++
		nd := ix.nodes[k]
		records := ix.appendAds(nil, nd.off, nd.off+nd.n)
		dec, err := compress.DecodeNode(compress.EncodeNode(records))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(records) {
			t.Fatalf("round-trip length %d, want %d", len(dec), len(records))
		}
		for i := range dec {
			r := nd.off + uint32(i)
			if dec[i].ID != ix.ids[r] || dec[i].Phrase != ix.phrase(r) {
				t.Fatalf("record %d round-tripped as (%d,%q), want (%d,%q)", i, dec[i].ID, dec[i].Phrase, ix.ids[r], ix.phrase(r))
			}
			if SetSignature(dec[i].Words) != ix.sigs[r] {
				t.Fatalf("sig column diverged at %d", i)
			}
			if len(dec[i].Words) != int(ix.wcs[r]) {
				t.Fatalf("wc column diverged at %d", i)
			}
			ids, ok := ix.voc.appendIDs(nil, dec[i].Words)
			if !ok || !slices.Equal(ids, ix.recWords(r)) {
				t.Fatalf("word column diverged at %d", i)
			}
			if dec[i].Size() != ix.size(r) {
				t.Fatalf("record %d size %d, want %d", i, dec[i].Size(), ix.size(r))
			}
		}
	})
	if nodes == 0 {
		t.Fatal("no nodes built")
	}
}

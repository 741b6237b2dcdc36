package adindex

import (
	"io"

	"adindex/internal/corpus"
)

// WriteAds serializes ads in the line-oriented text format used by the
// CLI tools (one tab-separated ad per line). The format is documented in
// cmd/adgen.
func WriteAds(w io.Writer, ads []Ad) error {
	c := corpus.Corpus{Ads: ads}
	return c.Write(w)
}

// GenerateAds produces a deterministic synthetic corpus with the
// distributional properties of real advertisement corpora (short bids
// peaking at 3 words, Zipf word-set multiplicity, keyword skew). Useful
// for testing and capacity planning; see the adgen tool for a CLI.
func GenerateAds(n int, seed int64) []Ad {
	return corpus.Generate(corpus.GenOptions{NumAds: n, Seed: seed}).Ads
}

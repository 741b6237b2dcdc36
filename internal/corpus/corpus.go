// Package corpus defines the advertisement corpus model and a deterministic
// synthetic generator that reproduces the distributional properties of the
// real corpora used in the paper (Section I-B):
//
//   - bid phrases are short, with the word-length distribution peaking at 3
//     words (62% of bids have <=3 words, 96% <=5, 99.8% <=8 — Figure 1);
//   - the number of advertisements per distinct word set follows a long-tail
//     (Zipf) distribution (Figure 2), generated here by preferential
//     attachment (a Yule–Simon process);
//   - single-keyword frequencies are far more skewed than word-set
//     frequencies (Figure 7), which emerges from Zipf word popularity.
//
// The paper evaluates on proprietary corpora of 1.8M–290M real ads; this
// generator is the documented substitute (see DESIGN.md §2).
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"adindex/internal/textnorm"
)

// Ad is a single advertisement: a bid phrase plus the metadata carried in
// the data nodes (info(A) in the paper's notation).
type Ad struct {
	// ID identifies the advertisement (listing) uniquely within a corpus.
	ID uint64
	// Phrase is the bid phrase with its original word order preserved
	// (required for phrase-match and exact-match processing).
	Phrase string
	// Words is the canonical word set of the phrase: tokenized,
	// duplicate-folded, sorted, deduplicated (words(A) in the paper).
	Words []string
	// Meta is the advertisement metadata stored alongside the phrase.
	Meta Meta
}

// Meta is the advertiser metadata associated with an ad (info(A)).
type Meta struct {
	CampaignID uint32
	// BidMicros is the bid price in micro-units of currency.
	BidMicros int64
	// ClickRate is the observed click-through rate estimate in basis
	// points (1/10000), one of the secondary ranking signals that is NOT
	// monotone in per-keyword scores (Section I-B).
	ClickRate uint16
	// Exclusions are negative keywords: if any appears in the query, the
	// ad must be filtered out after retrieval.
	Exclusions []string
}

// ExclusionSets returns the canonical word set of each exclusion, computed
// on each call: its one reader, the auction, asks at most once per ad.
func (m *Meta) ExclusionSets() [][]string {
	if len(m.Exclusions) == 0 {
		return nil
	}
	sets := make([][]string, len(m.Exclusions))
	for i, e := range m.Exclusions {
		sets[i] = textnorm.WordSet(e)
	}
	return sets
}

// NewAd builds an Ad from a raw phrase, normalizing it into a canonical
// word set.
func NewAd(id uint64, phrase string, meta Meta) Ad {
	return Ad{ID: id, Phrase: phrase, Words: textnorm.WordSet(phrase), Meta: meta}
}

// PhraseSize returns the in-memory size in bytes attributed to the phrase
// (size(phrase(A)) in the cost model): the phrase bytes plus a 2-byte
// length prefix.
func (a *Ad) PhraseSize() int { return len(a.Phrase) + 2 }

// MetaSize returns size(info(A)): fixed-width fields plus exclusion bytes.
func (a *Ad) MetaSize() int {
	n := 8 + 4 + 8 + 2 // ID + campaign + bid + ctr
	for _, e := range a.Meta.Exclusions {
		n += len(e) + 1
	}
	return n
}

// Size returns size(A) = size(phrase(A)) + size(info(A)).
func (a *Ad) Size() int { return a.PhraseSize() + a.MetaSize() }

// SetKey returns the canonical map key of the ad's word set.
func (a *Ad) SetKey() string { return textnorm.SetKey(a.Words) }

// Corpus is an in-memory advertisement corpus.
type Corpus struct {
	Ads []Ad
}

// NumAds returns the number of advertisements.
func (c *Corpus) NumAds() int { return len(c.Ads) }

// DistinctSets returns the number of distinct word sets in the corpus.
func (c *Corpus) DistinctSets() int {
	seen := make(map[string]struct{}, len(c.Ads))
	for i := range c.Ads {
		seen[c.Ads[i].SetKey()] = struct{}{}
	}
	return len(seen)
}

// Vocabulary returns the sorted set of distinct words across all bids.
func (c *Corpus) Vocabulary() []string {
	seen := make(map[string]struct{})
	for i := range c.Ads {
		for _, w := range c.Ads[i].Words {
			seen[w] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// LengthHistogram returns counts of bids by word-set size; index i holds
// the number of bids with exactly i words (index 0 is unused for valid
// corpora). This regenerates Figure 1.
func (c *Corpus) LengthHistogram() []int {
	var h []int
	for i := range c.Ads {
		n := len(c.Ads[i].Words)
		for len(h) <= n {
			h = append(h, 0)
		}
		h[n]++
	}
	return h
}

// CumulativeLengthShare returns, for each length L >= 1, the fraction of
// bids with at most L words.
func (c *Corpus) CumulativeLengthShare() []float64 {
	h := c.LengthHistogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(h))
	cum := 0
	for l := 0; l < len(h); l++ {
		cum += h[l]
		out[l] = float64(cum) / float64(total)
	}
	return out
}

// SetFrequencies returns the number of ads per distinct word set, sorted
// descending. This regenerates Figure 2 (the long tail of ads per set).
func (c *Corpus) SetFrequencies() []int {
	counts := make(map[string]int, len(c.Ads))
	for i := range c.Ads {
		counts[c.Ads[i].SetKey()]++
	}
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		out = append(out, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// WordFrequencies returns the number of bids containing each distinct
// word, sorted descending. Compared against SetFrequencies it regenerates
// Figure 7 (keyword skew vastly exceeds word-set skew).
func (c *Corpus) WordFrequencies() []int {
	counts := make(map[string]int)
	for i := range c.Ads {
		for _, w := range c.Ads[i].Words {
			counts[w]++
		}
	}
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		out = append(out, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// WordCounts returns the per-word bid counts (corpus frequency of each
// keyword), used by the non-redundant inverted-index baseline to pick the
// rarest word of each phrase.
func (c *Corpus) WordCounts() map[string]int {
	counts := make(map[string]int)
	for i := range c.Ads {
		for _, w := range c.Ads[i].Words {
			counts[w]++
		}
	}
	return counts
}

// GenOptions configures the synthetic corpus generator.
type GenOptions struct {
	// NumAds is the number of advertisements to generate.
	NumAds int
	// VocabSize is the size of the word vocabulary. Defaults to
	// max(1000, NumAds/20) when zero.
	VocabSize int
	// ZipfS is the Zipf exponent of word popularity (>1). Default 1.07,
	// matching typical natural-language keyword skew.
	ZipfS float64
	// ZipfV is the Zipf head-flattening offset (the v of p(k) ∝ (v+k)^-s):
	// without it the single most popular word would absorb ~10% of all
	// word slots, giving popular word sets far heavier duplication than
	// real ad corpora show (the paper's popular hash keys hold ~100 ads).
	// Default 8.
	ZipfV float64
	// ReuseProb is the probability that a new ad reuses an existing word
	// set (preferential attachment), producing the Figure 2 long tail.
	// Default 0.35.
	ReuseProb float64
	// VariantProb is the probability that a fresh phrase extends an
	// existing shorter phrase with new words ("running shoes" ->
	// "cheap running shoes"), reproducing the subset structure of real
	// campaign catalogs that re-mapping exploits. The target length is
	// still drawn from LengthDist, so Figure 1 calibration is unaffected.
	// Default 0.35.
	VariantProb float64
	// Seed makes generation deterministic.
	Seed int64
	// ExclusionProb is the probability an ad carries a negative keyword.
	// Default 0.02.
	ExclusionProb float64
	// LengthDist overrides the bid-length distribution; LengthDist[i] is
	// the probability of a bid with i+1 words. Defaults to the Figure 1
	// calibration.
	LengthDist []float64
}

// BidLengthDist is the default bid-length distribution, calibrated to
// Figure 1 of the paper: peak at 3 words, 62% of bids <=3 words, 96% <=5,
// 99.8% <=8, with a rapid (log-scale) drop-off beyond.
var BidLengthDist = []float64{
	0.05,   // 1 word
	0.25,   // 2 words
	0.32,   // 3 words   (cumulative 0.62)
	0.22,   // 4 words
	0.12,   // 5 words   (cumulative 0.96)
	0.025,  // 6 words
	0.010,  // 7 words
	0.003,  // 8 words   (cumulative 0.998)
	0.0012, // 9 words
	0.0005, // 10 words
	0.0002, // 11 words
	0.0001, // 12 words
}

// MTRuleLengthDist is the synthetic machine-translation rule-length
// distribution for Figure 3: it also peaks at 3 but falls off much more
// slowly than bids (relatively more long phrases), mirroring the NIST
// parallel-corpus rules described in Section II.
var MTRuleLengthDist = []float64{
	0.08, // 1
	0.20, // 2
	0.24, // 3
	0.19, // 4
	0.14, // 5
	0.09, // 6
	0.06, // 7
}

func (o *GenOptions) fillDefaults() {
	if o.VocabSize == 0 {
		o.VocabSize = o.NumAds / 10
		if o.VocabSize < 1000 {
			o.VocabSize = 1000
		}
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.07
	}
	if o.ZipfV == 0 {
		o.ZipfV = 8
	}
	if o.ReuseProb == 0 {
		o.ReuseProb = 0.35
	}
	if o.VariantProb == 0 {
		o.VariantProb = 0.35
	}
	if o.ExclusionProb == 0 {
		o.ExclusionProb = 0.02
	}
	if o.LengthDist == nil {
		o.LengthDist = BidLengthDist
	}
}

// Generate produces a deterministic synthetic corpus with the paper's
// distributional properties. The same options always yield the same corpus.
func Generate(opts GenOptions) *Corpus {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	vocab := MakeVocabulary(opts.VocabSize)
	zipf := rand.NewZipf(rng, opts.ZipfS, opts.ZipfV, uint64(opts.VocabSize-1))
	lengths := newSampler(opts.LengthDist)

	ads := make([]Ad, 0, opts.NumAds)
	// setPhrases records one representative phrase per distinct word set,
	// so reused sets replay an identical phrase; setList supports
	// preferential-attachment sampling (each ad contributes one entry, so
	// picking a uniform entry picks a set proportional to its count).
	type setEntry struct{ phrase string }
	var setList []setEntry

	for i := 0; i < opts.NumAds; i++ {
		var phrase string
		if len(setList) > 0 && rng.Float64() < opts.ReuseProb {
			phrase = setList[rng.Intn(len(setList))].phrase
		} else if len(setList) > 0 && rng.Float64() < opts.VariantProb {
			phrase = variantPhrase(rng, zipf, vocab, lengths, setList[rng.Intn(len(setList))].phrase)
		} else {
			phrase = randomPhrase(rng, zipf, vocab, lengths)
		}
		meta := Meta{
			CampaignID: uint32(rng.Intn(1 << 20)),
			BidMicros:  int64(5000 + rng.Intn(5000000)),
			ClickRate:  uint16(rng.Intn(2000)),
		}
		if rng.Float64() < opts.ExclusionProb {
			meta.Exclusions = []string{vocab[zipf.Uint64()]}
		}
		ad := NewAd(uint64(i+1), phrase, meta)
		ads = append(ads, ad)
		setList = append(setList, setEntry{phrase: phrase})
	}
	return &Corpus{Ads: ads}
}

// randomPhrase draws a phrase length from the sampler and fills it with
// distinct Zipf-popular words.
func randomPhrase(rng *rand.Rand, zipf *rand.Zipf, vocab []string, lengths *sampler) string {
	return randomPhraseOfLength(rng, zipf, vocab, lengths.sample(rng)+1)
}

// variantPhrase extends base with fresh words up to a target length drawn
// from the length distribution; when base is already at or above the
// target, a fresh phrase of the target length is generated instead (so
// the length distribution is preserved exactly).
func variantPhrase(rng *rand.Rand, zipf *rand.Zipf, vocab []string, lengths *sampler, base string) string {
	target := lengths.sample(rng) + 1
	baseWords := strings.Fields(base)
	if len(baseWords) >= target {
		return randomPhraseOfLength(rng, zipf, vocab, target)
	}
	seen := make(map[string]bool, target)
	for _, w := range baseWords {
		seen[w] = true
	}
	words := append([]string{}, baseWords...)
	for len(words) < target {
		w := vocab[zipf.Uint64()]
		if seen[w] {
			continue
		}
		seen[w] = true
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

func randomPhraseOfLength(rng *rand.Rand, zipf *rand.Zipf, vocab []string, n int) string {
	words := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(words) < n {
		w := vocab[zipf.Uint64()]
		if seen[w] {
			continue
		}
		seen[w] = true
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

// GenerateMTRules produces synthetic machine-translation phrase rules with
// the slower length falloff of Figure 3, for the distribution-contrast
// experiment only.
func GenerateMTRules(n int, seed int64) *Corpus {
	return Generate(GenOptions{
		NumAds:     n,
		Seed:       seed,
		LengthDist: MTRuleLengthDist,
		ReuseProb:  0.10,
	})
}

// MakeVocabulary returns a deterministic vocabulary of n distinct
// pseudo-words ordered by popularity rank (index 0 = most popular). Words
// are built from syllables so they look plausible in examples and logs.
func MakeVocabulary(n int) []string {
	onsets := []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
		"n", "p", "r", "s", "t", "v", "w", "z", "ch", "sh", "st", "br", "cl", "tr"}
	nuclei := []string{"a", "e", "i", "o", "u", "ai", "ea", "ou", "io"}
	codas := []string{"", "n", "r", "s", "t", "l", "m", "ck", "nd", "st"}
	vocab := make([]string, n)
	seen := make(map[string]int, n)
	for i := 0; i < n; i++ {
		x := i
		var b strings.Builder
		// Two syllables minimum; add a third for large indexes to keep
		// words distinct without a suffix in most cases.
		for s := 0; s < 2+(x/(len(onsets)*len(nuclei)*len(codas)))%2; s++ {
			b.WriteString(onsets[x%len(onsets)])
			x /= len(onsets)
			b.WriteString(nuclei[x%len(nuclei)])
			x /= len(nuclei)
			if s > 0 {
				b.WriteString(codas[x%len(codas)])
				x /= len(codas)
			}
		}
		w := b.String()
		if k, dup := seen[w]; dup {
			w = fmt.Sprintf("%s%d", w, k+2)
			seen[b.String()] = k + 1
		} else {
			seen[w] = 0
		}
		vocab[i] = w
	}
	return vocab
}

// sampler draws from a discrete distribution via its CDF.
type sampler struct {
	cdf []float64
}

func newSampler(probs []float64) *sampler {
	cdf := make([]float64, len(probs))
	sum := 0.0
	for i, p := range probs {
		sum += p
		cdf[i] = sum
	}
	// Normalize so the final entry is exactly 1 even if probs do not sum
	// to 1 precisely.
	for i := range cdf {
		cdf[i] /= sum
	}
	return &sampler{cdf: cdf}
}

// sample returns an index in [0, len(cdf)).
func (s *sampler) sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(s.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Package workload models search-query workloads for broad-match
// evaluation (Section V of the paper). A workload is a set of distinct
// queries with observed frequencies; query frequencies follow a power law,
// so the most frequent queries can be identified robustly from a small
// sample and dominate any re-mapping decision.
//
// The paper uses a proprietary web-search trace of 5M queries; this
// generator is the documented substitute (DESIGN.md §2). Queries are
// correlated with the corpus — most contain at least one indexed word set
// as a subset, as real queries do — plus noise words, so that broad-match
// selectivity and co-access patterns resemble the real trace.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"adindex/internal/corpus"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
)

// Query is a search query reduced to its canonical word set (word order is
// irrelevant for broad match; duplicates are folded).
type Query struct {
	// Words is the canonical word set of the query.
	Words []string
	// Freq is the observed frequency of the query in the workload.
	Freq int
}

// Key returns the canonical map key of the query's word set.
func (q *Query) Key() string { return textnorm.SetKey(q.Words) }

// Parse builds a Query from raw query text with frequency 1.
func Parse(s string) Query {
	return Query{Words: textnorm.WordSet(s), Freq: 1}
}

// Workload is a set of distinct queries with frequencies (WL in the paper).
type Workload struct {
	Queries []Query
}

// TotalFreq returns the total number of query occurrences in the workload.
func (wl *Workload) TotalFreq() int {
	total := 0
	for i := range wl.Queries {
		total += wl.Queries[i].Freq
	}
	return total
}

// TopK returns the k most frequent queries (all of them if k exceeds the
// workload size). The receiver is not modified.
func (wl *Workload) TopK(k int) []Query {
	qs := make([]Query, len(wl.Queries))
	copy(qs, wl.Queries)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Freq > qs[j].Freq })
	if k > len(qs) {
		k = len(qs)
	}
	return qs[:k]
}

// LengthHistogram returns counts of distinct queries by word count.
func (wl *Workload) LengthHistogram() []int {
	var h []int
	for i := range wl.Queries {
		n := len(wl.Queries[i].Words)
		for len(h) <= n {
			h = append(h, 0)
		}
		h[n]++
	}
	return h
}

// Stream expands the workload into a deterministic shuffled sequence of n
// query occurrences sampled proportionally to frequency. Used to drive
// throughput experiments.
func (wl *Workload) Stream(n int, seed int64) []*Query {
	if len(wl.Queries) == 0 || n <= 0 {
		return nil
	}
	// Build the cumulative frequency table once, then sample.
	cum := make([]int, len(wl.Queries))
	total := 0
	for i := range wl.Queries {
		total += wl.Queries[i].Freq
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Query, n)
	for i := 0; i < n; i++ {
		x := rng.Intn(total)
		idx := sort.SearchInts(cum, x+1)
		out[i] = &wl.Queries[idx]
	}
	return out
}

// GenOptions configures the synthetic workload generator.
type GenOptions struct {
	// NumQueries is the number of distinct queries to generate.
	NumQueries int
	// HitProb is the probability a query embeds the word set of a random
	// corpus ad (guaranteeing at least one broad match before noise).
	// Default 0.7.
	HitProb float64
	// MaxExtraWords bounds the number of noise words appended to an
	// embedded ad word set. Default 3.
	MaxExtraWords int
	// ZipfS is the exponent of the query-frequency power law. Default 1.2.
	ZipfS float64
	// MaxFreq is the frequency assigned to the top query. Default 10000.
	MaxFreq int
	// LongQueryProb is the probability of generating an unusually long
	// query (9–16 words), whose subset enumeration is the widest.
	// Default 0.02.
	LongQueryProb float64
	// TypoRate is the probability a generated query carries a one-letter
	// typo in one word, for evaluating approximate (fuzzy) broad match.
	// Default 0 — no typos, byte-identical to pre-knob generation.
	TypoRate float64
	// SynonymRate is the probability a generated query substitutes one
	// word with a member of its synonym class. Default 0.
	SynonymRate float64
	// Synonyms is the class table SynonymRate draws from; nil with a
	// positive SynonymRate derives a table from the corpus vocabulary
	// (DeriveClasses).
	Synonyms *rewrite.Classes
	// Seed makes generation deterministic.
	Seed int64
}

func (o *GenOptions) fillDefaults() {
	if o.HitProb == 0 {
		o.HitProb = 0.7
	}
	if o.MaxExtraWords == 0 {
		o.MaxExtraWords = 3
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.2
	}
	if o.MaxFreq == 0 {
		o.MaxFreq = 10000
	}
	if o.LongQueryProb == 0 {
		o.LongQueryProb = 0.02
	}
}

// Generate produces a deterministic synthetic workload correlated with the
// given corpus. Query ranks are assigned power-law frequencies
// (frq(rank) ∝ rank^-ZipfS scaled to MaxFreq).
func Generate(c *corpus.Corpus, opts GenOptions) *Workload {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	vocab := c.Vocabulary()
	if len(vocab) == 0 {
		vocab = corpus.MakeVocabulary(100)
	}

	if opts.SynonymRate > 0 && opts.Synonyms == nil {
		if classes, err := DeriveClasses(vocab); err == nil {
			opts.Synonyms = classes
		}
	}

	// Embed uniformly sampled *distinct word sets*: sampling ads directly
	// would weight queries toward the corpus's giant head sets (Figure 2
	// long tail), making every hot query return thousands of ads, which
	// real query traces do not do.
	distinct := distinctSets(c)

	seen := make(map[string]bool, opts.NumQueries)
	queries := make([]Query, 0, opts.NumQueries)
	for attempts := 0; len(queries) < opts.NumQueries && attempts < opts.NumQueries*20; attempts++ {
		words := generateOne(rng, distinct, vocab, &opts)
		words = perturbWords(rng, words, &opts)
		if len(words) == 0 {
			continue
		}
		key := textnorm.SetKey(words)
		if seen[key] {
			continue
		}
		seen[key] = true
		queries = append(queries, Query{Words: words})
	}
	// Power-law frequencies by rank; the generated order is already
	// random, so rank assignment induces no structural bias.
	for i := range queries {
		f := float64(opts.MaxFreq) / math.Pow(float64(i+1), opts.ZipfS)
		if f < 1 {
			f = 1
		}
		queries[i].Freq = int(f)
	}
	return &Workload{Queries: queries}
}

func distinctSets(c *corpus.Corpus) [][]string {
	seen := make(map[string]bool, c.NumAds())
	var out [][]string
	for i := range c.Ads {
		key := c.Ads[i].SetKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c.Ads[i].Words)
	}
	return out
}

func generateOne(rng *rand.Rand, distinct [][]string, vocab []string, opts *GenOptions) []string {
	var words []string
	if len(distinct) > 0 && rng.Float64() < opts.HitProb {
		words = append(words, distinct[rng.Intn(len(distinct))]...)
		extra := rng.Intn(opts.MaxExtraWords + 1)
		for i := 0; i < extra; i++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
	} else {
		n := 1 + rng.Intn(4)
		if rng.Float64() < opts.LongQueryProb {
			n = 9 + rng.Intn(8)
		}
		for i := 0; i < n; i++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
	}
	return textnorm.CanonicalSet(words)
}

// perturbWords applies the rewrite-evaluation knobs to one generated
// query: a synonym-class substitution with probability SynonymRate,
// otherwise a one-letter typo with probability TypoRate. Both rng draws
// happen only when the corresponding rate is positive, so zero-knob
// generation stays byte-identical across versions.
func perturbWords(rng *rand.Rand, words []string, opts *GenOptions) []string {
	if len(words) == 0 {
		return words
	}
	if opts.SynonymRate > 0 && opts.Synonyms != nil && rng.Float64() < opts.SynonymRate {
		var idxs []int
		for i, w := range words {
			if len(opts.Synonyms.Alternates(w)) > 0 {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			i := idxs[rng.Intn(len(idxs))]
			alts := opts.Synonyms.Alternates(words[i])
			words[i] = alts[rng.Intn(len(alts))]
			return textnorm.CanonicalSet(words)
		}
	}
	if opts.TypoRate > 0 && rng.Float64() < opts.TypoRate {
		i := rng.Intn(len(words))
		r := []rune(words[i])
		if len(r) >= 3 {
			j := rng.Intn(len(r))
			if r[j] >= 'a' && r[j] <= 'z' {
				r[j] = 'a' + (r[j]-'a'+1+rune(rng.Intn(24)))%26
				words[i] = string(r)
				return textnorm.CanonicalSet(words)
			}
		}
	}
	return words
}

// DeriveClasses builds a small deterministic synonym table from a
// vocabulary by pairing words at a fixed stride. adgen writes it out
// (-synonyms-out) so a server evaluating the generated workload can load
// the matching table with -synonyms.
func DeriveClasses(vocab []string) (*rewrite.Classes, error) {
	var classes [][]string
	for i := 0; i+1 < len(vocab) && len(classes) < 32; i += 4 {
		classes = append(classes, []string{vocab[i], vocab[i+1]})
	}
	return rewrite.NewClasses(classes)
}

// Write serializes the workload as "freq<TAB>words..." lines.
func (wl *Workload) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range wl.Queries {
		q := &wl.Queries[i]
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", q.Freq, strings.Join(q.Words, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a workload from the format produced by Write.
func Read(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	wl := &Workload{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: line %d: expected freq<TAB>words", lineNo)
		}
		freq, err := strconv.Atoi(parts[0])
		if err != nil || freq <= 0 {
			return nil, fmt.Errorf("workload: line %d: bad frequency %q", lineNo, parts[0])
		}
		words := textnorm.WordSet(parts[1])
		if len(words) == 0 {
			return nil, fmt.Errorf("workload: line %d: empty query", lineNo)
		}
		wl.Queries = append(wl.Queries, Query{Words: words, Freq: freq})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return wl, nil
}

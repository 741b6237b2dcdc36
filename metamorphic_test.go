package adindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/textnorm"
)

// Metamorphic invariants of broad match, checked over many seeded
// corpora. These hold by the definition words(P) ⊆ Q over canonical
// word sets:
//
//  1. Superset monotonicity — adding fresh words (words the query does
//     not already contain) can only add matches, never remove any.
//     Fresh matters: canonicalization folds duplicate occurrences into
//     distinguished tokens ("w w" → {w_w}), so repeating an existing
//     word REPLACES its singleton token and is not a set extension.
//  2. Multiset reorder invariance — results depend only on the word
//     multiset: any reordering of a query's words (duplicates included,
//     at any positions) yields identical results.
//  3. Duplicate-folding semantics — a query must match bids with the
//     same per-word multiplicities: "w w x" matches a "x w w" bid but
//     not vice versa (pinned, documenting the paper's duplicate
//     treatment).
//  4. Layout independence — Optimize and ApplyMapping re-map storage
//     only; BroadMatch output is deep-equal before and after.

const metamorphicCorpora = 100

// metamorphicCorpus builds one small seeded corpus plus derived queries.
func metamorphicCorpus(seed int64) (*Index, []corpus.Ad, []string, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	vocab := corpus.MakeVocabulary(25)
	nAds := 30 + rng.Intn(40)
	ads := make([]corpus.Ad, nAds)
	for i := range ads {
		n := 1 + rng.Intn(6)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		ads[i] = corpus.NewAd(uint64(i+1), strings.Join(toks, " "), corpus.Meta{
			BidMicros: int64(1+rng.Intn(4)) * 1000,
		})
	}
	ix := New(Options{MaxWords: 4})
	for _, ad := range ads {
		ix.Insert(ad)
	}
	queries := make([]string, 12)
	for i := range queries {
		ad := &ads[rng.Intn(len(ads))]
		words := append([]string(nil), ad.Words...)
		for n := rng.Intn(3); n > 0; n-- {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		queries[i] = strings.Join(words, " ")
	}
	return ix, ads, queries, rng
}

func sortedMatches(ix *Index, q string) []Ad {
	got := ix.BroadMatch(q)
	sort.SliceStable(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	return got
}

func TestMetamorphicSupersetMonotonicity(t *testing.T) {
	for seed := int64(0); seed < metamorphicCorpora; seed++ {
		ix, _, queries, rng := metamorphicCorpus(seed)
		vocab := corpus.MakeVocabulary(25)
		for _, q := range queries {
			base := sortedMatches(ix, q)
			// Widen the query with 1-3 fresh words (indexed or not).
			// Repeats of existing words are skipped: they would fold
			// into duplicate tokens and change the set, not extend it.
			// Tokenize (not Fields) so a folded token like "haba_haba"
			// marks its base word "haba" as present.
			present := make(map[string]bool)
			for _, w := range textnorm.Tokenize(q) {
				present[w] = true
			}
			extra := q
			added := 0
			for i := 0; i < len(vocab) && added < 1+rng.Intn(3); i++ {
				w := vocab[rng.Intn(len(vocab))]
				if present[w] {
					continue
				}
				present[w] = true
				extra += " " + w
				added++
			}
			wide := sortedMatches(ix, extra)
			if missing := subtractByIdentity(base, wide); len(missing) > 0 {
				t.Fatalf("seed %d: widening %q -> %q lost matches %v", seed, q, extra, missing)
			}
		}
	}
}

// subtractByIdentity returns the (ID, set-key) identities in a that are
// missing (counting multiplicity) from b.
func subtractByIdentity(a, b []Ad) []uint64 {
	count := make(map[string]int, len(b))
	for i := range b {
		count[fmt.Sprintf("%d/%s", b[i].ID, b[i].SetKey())]++
	}
	var missing []uint64
	for i := range a {
		k := fmt.Sprintf("%d/%s", a[i].ID, a[i].SetKey())
		if count[k] == 0 {
			missing = append(missing, a[i].ID)
			continue
		}
		count[k]--
	}
	return missing
}

func TestMetamorphicMultisetReorderInvariance(t *testing.T) {
	for seed := int64(0); seed < metamorphicCorpora; seed++ {
		ix, _, queries, rng := metamorphicCorpus(seed)
		for _, q := range queries {
			// Work on a multiset WITH duplicates: double one word so the
			// invariance covers folded-duplicate tokens too.
			words := strings.Fields(q)
			words = append(words, words[rng.Intn(len(words))])
			want := sortedMatches(ix, strings.Join(words, " "))
			for trial := 0; trial < 3; trial++ {
				rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
				if got := sortedMatches(ix, strings.Join(words, " ")); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: reordering multiset %v changed results", seed, words)
				}
			}
			// Mixed case and extra whitespace are normalization no-ops.
			shouted := strings.ToUpper(strings.Join(words, "   "))
			if got := sortedMatches(ix, shouted); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: case/whitespace changed results for %v", seed, words)
			}
		}
	}
}

// TestMetamorphicDuplicateFolding pins the duplicate-occurrence
// semantics: multiplicities must match exactly, so repeating a query
// word is NOT a no-op — it selects bids that duplicate the word.
func TestMetamorphicDuplicateFolding(t *testing.T) {
	ix := New(Options{})
	single := NewAd(1, "york hotel", Meta{BidMicros: 1})
	double := NewAd(2, "york york hotel", Meta{BidMicros: 2})
	ix.Insert(single)
	ix.Insert(double)

	ids := func(q string) []uint64 {
		var out []uint64
		for _, ad := range sortedMatches(ix, q) {
			out = append(out, ad.ID)
		}
		return out
	}
	if got := ids("new york hotel"); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("single-occurrence query matched %v, want [1]", got)
	}
	if got := ids("new york york hotel"); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("double-occurrence query matched %v, want [2]", got)
	}
	if got := ids("york hotel york new york"); !reflect.DeepEqual(got, []uint64(nil)) {
		t.Fatalf("triple-occurrence query matched %v, want none", got)
	}
}

func TestMetamorphicOptimizeAndApplyMappingPreserveResults(t *testing.T) {
	for seed := int64(0); seed < metamorphicCorpora; seed++ {
		ix, ads, queries, _ := metamorphicCorpus(seed)
		before := make([][]Ad, len(queries))
		for i, q := range queries {
			before[i] = sortedMatches(ix, q)
		}

		if _, err := ix.Optimize(); err != nil {
			t.Fatalf("seed %d: Optimize: %v", seed, err)
		}
		for i, q := range queries {
			if got := sortedMatches(ix, q); !reflect.DeepEqual(got, before[i]) {
				t.Fatalf("seed %d: Optimize changed results for %q", seed, q)
			}
		}

		// An externally supplied collapse mapping (every set located
		// under its first word) reshuffles the layout far more
		// aggressively than Optimize; results must still be identical.
		mapping := make(map[string][]string)
		for i := range ads {
			key := textnorm.SetKey(ads[i].Words)
			if _, ok := mapping[key]; !ok {
				mapping[key] = []string{ads[i].Words[0]}
			}
		}
		var buf bytes.Buffer
		if err := optimize.WriteMapping(&buf, mapping); err != nil {
			t.Fatalf("seed %d: WriteMapping: %v", seed, err)
		}
		if err := ix.ApplyMapping(&buf); err != nil {
			t.Fatalf("seed %d: ApplyMapping: %v", seed, err)
		}
		for i, q := range queries {
			if got := sortedMatches(ix, q); !reflect.DeepEqual(got, before[i]) {
				t.Fatalf("seed %d: ApplyMapping changed results for %q", seed, q)
			}
		}
	}
}

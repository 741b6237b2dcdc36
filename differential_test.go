package adindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/treeindex"
)

// Differential tests pinning the views read off a built index — the
// compressed B^sig/B^off snapshot, across several signature suffix
// widths, and the tree of Section III-B — against the hash-table index
// they are read from: over randomized corpora all three must return
// identical broad-match results for every query. The corpora deliberately
// stress the spots where the code paths diverge structurally — exclusion
// metadata, duplicate-folded word sets, phrases at the max_words locator
// boundary (where sets stop being fully indexable and locator selection
// kicks in), tombstones folded into the base, and a non-default mapping
// that co-locates sets.

const (
	diffCorpora    = 30
	diffMaxWords   = 4 // index MaxWords: phrases at/over this hit the locator boundary
	diffNumQueries = 40
)

// diffCorpus builds one adversarial corpus: a mix of short phrases,
// phrases with duplicated words, exact-boundary and over-boundary
// phrases, and exclusion metadata; some ads are duplicates of earlier
// ones under new IDs; odd seeds re-map the index for an observed workload,
// and a slice of the corpus is then deleted again so the snapshot is taken
// over a folded base with tombstoned sets.
func diffCorpus(t *testing.T, seed int64) (*Index, []corpus.Ad, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	vocab := corpus.MakeVocabulary(30)
	pick := func() string { return vocab[rng.Intn(len(vocab))] }

	var ads []corpus.Ad
	id := uint64(0)
	add := func(phrase string, meta corpus.Meta) {
		id++
		ads = append(ads, corpus.NewAd(id, phrase, meta))
	}

	for i := 0; i < 40; i++ {
		var toks []string
		switch rng.Intn(4) {
		case 0: // short phrase, 1-3 words
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, pick())
			}
		case 1: // duplicated-word phrase ("w w x" folds to {w_w, x})
			w := pick()
			toks = append(toks, w, w)
			for n := rng.Intn(2); n > 0; n-- {
				toks = append(toks, pick())
			}
		case 2: // exactly at the max_words locator boundary
			for n := diffMaxWords; n > 0; n-- {
				toks = append(toks, pick())
			}
		default: // 1-3 words over the boundary
			for n := diffMaxWords + 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, pick())
			}
		}
		meta := corpus.Meta{BidMicros: int64(1+rng.Intn(5)) * 1000}
		if rng.Intn(3) == 0 {
			meta.Exclusions = []string{pick()}
		}
		add(strings.Join(toks, " "), meta)
	}
	// Duplicate word sets under fresh IDs: identical phrase, different ad.
	for i := 0; i < 6; i++ {
		src := ads[rng.Intn(len(ads))]
		add(src.Phrase, corpus.Meta{BidMicros: int64(1+rng.Intn(5)) * 1000})
	}

	ix := New(Options{MaxWords: diffMaxWords})
	for _, ad := range ads {
		ix.Insert(ad)
	}
	if seed%2 == 1 {
		// Queries that widen bid phrases make sets share nodes.
		for i := 0; i < 20; i++ {
			ix.BroadMatch(ads[rng.Intn(len(ads))].Phrase + " " + pick() + " " + pick())
		}
		if _, err := ix.Optimize(); err != nil {
			t.Fatalf("seed %d: Optimize: %v", seed, err)
		}
	}
	// Delete a slice so the snapshot folds over tombstones.
	live := ads[:0:0]
	for i := range ads {
		if rng.Intn(6) == 0 {
			ix.Delete(ads[i].ID, ads[i].Phrase)
		} else {
			live = append(live, ads[i])
		}
	}
	return ix, live, rng
}

// diffQueries derives queries that hit the corpus: bid phrases verbatim
// (including over-boundary and duplicated-word ones), widened phrases,
// and random word soup.
func diffQueries(ads []corpus.Ad, rng *rand.Rand) []string {
	vocab := corpus.MakeVocabulary(30)
	qs := make([]string, 0, diffNumQueries)
	for len(qs) < diffNumQueries {
		ad := ads[rng.Intn(len(ads))]
		switch rng.Intn(3) {
		case 0: // the bid phrase itself
			qs = append(qs, ad.Phrase)
		case 1: // widened: phrase plus 1-3 extra words
			toks := strings.Fields(ad.Phrase)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
			qs = append(qs, strings.Join(toks, " "))
		default: // random soup, 1-6 words
			var toks []string
			for n := 1 + rng.Intn(6); n > 0; n-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			qs = append(qs, strings.Join(toks, " "))
		}
	}
	return qs
}

func sortAds(ads []Ad) {
	sort.SliceStable(ads, func(i, j int) bool {
		if ads[i].ID != ads[j].ID {
			return ads[i].ID < ads[j].ID
		}
		return ads[i].SetKey() < ads[j].SetKey()
	})
}

func TestDifferentialCompressedVsHash(t *testing.T) {
	suffixWidths := []int{0, 4, 8, 12} // 0 = auto-select
	remapped := 0
	for seed := int64(0); seed < diffCorpora; seed++ {
		ix, live, rng := diffCorpus(t, seed)
		queries := diffQueries(live, rng)
		for _, bits := range suffixWidths {
			snap := compressedSnapshot(t, ix, bits)
			for _, q := range queries {
				want := ix.BroadMatch(q)
				sortAds(want)
				got, err := snap.BroadMatchText(q, nil)
				if err != nil {
					t.Fatalf("seed %d bits %d: compressed BroadMatch(%q): %v", seed, bits, q, err)
				}
				sortAds(got)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d bits %d: BroadMatch(%q) diverges:\ncompressed %v\nhash       %v",
						seed, bits, q, summarize(got), summarize(want))
				}
				// Exclusion metadata must survive compression: the auction
				// over both result sets picks identical winners.
				selWant := SelectAds(q, want, Selection{})
				selGot := SelectAds(q, got, Selection{})
				if !reflect.DeepEqual(selGot, selWant) {
					t.Fatalf("seed %d bits %d: auction over compressed results diverges for %q",
						seed, bits, q)
				}
			}
		}
		base := ix.foldedBase()
		if base.NumNodes() < base.NumDistinctSets() {
			remapped++
		}
		tree := treeindex.New(base)
		for _, q := range queries {
			want := ix.BroadMatch(q)
			sortAds(want)
			var got []Ad
			for _, ad := range tree.BroadMatchText(q, nil) {
				got = append(got, *ad)
			}
			sortAds(got)
			if !slices.Equal(summarize(got), summarize(want)) {
				t.Fatalf("seed %d: BroadMatch(%q) diverges:\ntree %v\nhash %v",
					seed, q, summarize(got), summarize(want))
			}
		}
	}
	if remapped == 0 {
		t.Fatal("no corpus had a mapping that co-locates word sets")
	}
}

func summarize(ads []Ad) []string {
	out := make([]string, len(ads))
	for i := range ads {
		out[i] = fmt.Sprintf("%d:%q", ads[i].ID, ads[i].Phrase)
	}
	return out
}

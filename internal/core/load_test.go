package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adindex/internal/corpus"
)

// grown is the reference the bulk loader is held to: the index the same
// ads and mapping build one Insert at a time. Like the loader it knows the
// whole corpus' document frequencies before it places the first ad (they
// choose the default locator of a long phrase), and an explicit locator
// that is not the set's own words is entered just before its set's first
// ad arrives.
func grown(ads []corpus.Ad, mapping map[string][]string, opts Options) *Index {
	ix, _ := load(nil, nil, opts, 1)
	for i := range ads {
		for _, w := range ads[i].Words {
			ix.voc.df[ix.voc.intern(w)]++
		}
	}
	for i := range ads {
		key := ads[i].SetKey()
		if loc, ok := mapping[key]; ok && !slices.Equal(loc, ads[i].Words) && ix.locOf[key] == nil {
			ix.locOf[key] = loc
		}
		for _, w := range ads[i].Words {
			ix.voc.df[ix.voc.ids[w]]-- // Insert counts them again
		}
		ix.Insert(ads[i])
	}
	return ix
}

// nodeShape is everything a node holds, words as strings: the two builds
// number their vocabularies differently.
type nodeShape struct {
	Records  []corpus.Ad
	Sigs     []uint64
	Wcs      []uint32
	SameKey  []bool
	Prefixes uint32
}

// shape flattens an index for comparison: bookkeeping, table capacity, and
// per table key the node stored there and the prefix references on it.
// Where the records sit in the columns, and the room a grown node has,
// are left out.
func shape(t *testing.T, ix *Index) (map[uint64]nodeShape, []any) {
	t.Helper()
	byKey := make(map[uint64]nodeShape)
	for i, st := range ix.table.state {
		if st != slotFull {
			continue
		}
		sh := nodeShape{Prefixes: ix.table.cnt[i]}
		if v := ix.table.vals[i]; v != 0 {
			nd := ix.nodes[v-1]
			lo, hi := nd.off, nd.off+nd.n
			sh.Records = ix.appendAds(nil, lo, hi)
			sh.Sigs, sh.Wcs, sh.SameKey = ix.sigs[lo:hi], ix.wcs[lo:hi], ix.sameKey[lo:hi]
		}
		byKey[ix.table.keys[i]] = sh
	}
	return byKey, []any{ix.numAds, ix.sets, ix.bytes, ix.wordsUsed, ix.textUsed, ix.locOf, ix.DocFreqs(),
		len(ix.table.keys), ix.table.nodes, ix.table.live}
}

func requireSameStructure(t *testing.T, what string, got, want *Index) {
	t.Helper()
	gotNodes, gotBooks := shape(t, got)
	wantNodes, wantBooks := shape(t, want)
	if !reflect.DeepEqual(gotBooks, wantBooks) {
		t.Fatalf("%s: bookkeeping differs:\n got %v\nwant %v", what, gotBooks, wantBooks)
	}
	for h, w := range wantNodes {
		if g, ok := gotNodes[h]; !ok || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: table key %x differs:\n got %+v\nwant %+v", what, h, g, w)
		}
	}
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("%s: %d table keys, want %d", what, len(gotNodes), len(wantNodes))
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// awkwardAds is the input the generator never produces: phrases longer
// than any MaxWords under test, duplicate IDs (same phrase, a reordered
// phrase of the same set, another set), the wordless phrase, words of
// which one is a prefix of another in the same position, all out of ID
// order.
func awkwardAds() []corpus.Ad {
	phrases := []struct {
		id     uint64
		phrase string
	}{
		{40, "a b c d e f g h i j k l m"}, {7, "cheap used books"}, {7, "cheap used books"},
		{7, "books used cheap"}, {7, "used books"}, {3, "!!!"}, {3, "!!!"}, {12, "?"},
		{9, "car rental"}, {8, "cars rental"}, {8, "car rentals"}, {5, "car"}, {6, "cars"},
		{41, "n o p q r s t u v w x y z a"}, {2, "talk talk"}, {1, "a b c d e f g h i j k l m"},
		{7, "cheap used books"}, {30, "a b c d e f g h i j k l"}, {4, "rental car"},
	}
	ads := make([]corpus.Ad, len(phrases))
	for i, p := range phrases {
		ads[i] = corpus.NewAd(p.id, p.phrase, corpus.Meta{BidMicros: int64(i)})
	}
	return ads
}

// remapping maps every third multi-word set of ads to its first word, so
// that nodes hold several sets and locators are shared.
func remapping(ads []corpus.Ad) map[string][]string {
	mapping := make(map[string][]string)
	for i := range ads {
		if w := ads[i].Words; len(w) > 1 && i%3 == 0 {
			mapping[ads[i].SetKey()] = w[:1]
		}
	}
	mapping["not\x1fin\x1fthe\x1fcorpus"] = []string{"zzz"} // ignored, valid or not
	return mapping
}

// TestBulkLoadEqualsIncremental: New and NewWithMapping build, bulk, the
// structure the same input builds through Insert — records, every column,
// prefix counts, table capacity, vocabulary, bookkeeping — and refuse
// what they refused when they were a loop over place, in the same words.
func TestBulkLoadEqualsIncremental(t *testing.T) {
	inputs := map[string][]corpus.Ad{"awkward": awkwardAds(), "empty": nil}
	for _, seed := range []int64{1, 2, 3} {
		for _, size := range []int{1, 37, 600, 5000} {
			ads := corpus.Generate(corpus.GenOptions{NumAds: size, Seed: seed}).Ads
			rand.New(rand.NewSource(seed)).Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
			inputs[fmt.Sprintf("seed%d/%d", seed, size)] = append(ads, awkwardAds()...)
		}
	}
	for name, ads := range inputs {
		for _, opts := range []Options{{}, {MaxWords: 3}} {
			what := fmt.Sprintf("%s MaxWords=%d", name, opts.MaxWords)
			requireSameStructure(t, what, New(ads, opts), grown(ads, nil, opts))

			mapping := remapping(ads)
			ix, err := NewWithMapping(ads, mapping, opts)
			if err != nil {
				t.Fatalf("%s: valid mapping refused: %v", what, err)
			}
			requireSameStructure(t, what+" mapped", ix, grown(ads, mapping, opts))
		}
	}

	// Refusals: the first offending ad in input order decides, whatever
	// comes after it.
	ads := awkwardAds()
	long := ads[0].Words // 13 words
	for _, tc := range []struct {
		name    string
		mapping map[string][]string
		want    string
	}{
		{"over-long", map[string][]string{ads[0].SetKey(): long[:11]},
			fmt.Sprintf("core: locator %v for set %q exceeds MaxWords=%d", long[:11], ads[0].SetKey(), 10)},
		{"non-subset", map[string][]string{ads[1].SetKey(): {"books", "rare"}},
			fmt.Sprintf("core: locator %v is not a subset of words %v", []string{"books", "rare"}, ads[1].Words)},
		{"empty", map[string][]string{ads[8].SetKey(): {}},
			fmt.Sprintf("core: empty locator for set %q", ads[8].SetKey())},
		{"first in input order", map[string][]string{ads[8].SetKey(): {}, ads[4].SetKey(): {"zebra"}, ads[18].SetKey(): {"q"}},
			fmt.Sprintf("core: locator %v is not a subset of words %v", []string{"zebra"}, ads[4].Words)},
	} {
		for _, workers := range []int{1, 4} {
			ix, err := load(ads, tc.mapping, Options{}, workers)
			if ix != nil || err == nil || err.Error() != tc.want {
				t.Errorf("%s, %d workers: got (%v, %v), want refusal %q", tc.name, workers, ix, err, tc.want)
			}
		}
	}
}

// TestBulkLoadWorkerCountInvariant: the loaded index is a function of the
// input alone — the same columns, word IDs, arena, vocabulary, nodes and
// table, byte for byte, from one goroutine as from many.
func TestBulkLoadWorkerCountInvariant(t *testing.T) {
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 8000, Seed: 4}).Ads, awkwardAds()...)
	storage := func(ix *Index) []any {
		return []any{ix.ids, ix.bids, ix.ctr, ix.campaign, ix.sigs, ix.wcs, ix.sameKey, ix.wordAt, ix.textAt,
			ix.wordIDs, ix.arena, ix.voc.words, ix.voc.df, ix.nodes, ix.free,
			ix.table.keys, ix.table.vals, ix.table.cnt, ix.table.state}
	}
	for _, mapping := range []map[string][]string{nil, remapping(ads)} {
		one, err := load(ads, mapping, Options{MaxWords: 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 16} {
			many, err := load(ads, mapping, Options{MaxWords: 4}, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStructure(t, fmt.Sprint(workers, " workers"), many, one)
			if !reflect.DeepEqual(storage(many), storage(one)) {
				t.Fatalf("%d workers: storage differs from the single-worker build", workers)
			}
		}
	}
}

// TestMutateAfterBulkLoad: a loaded index takes online Inserts and Deletes
// in every node exactly as a grown one does. The nodes of a loaded index
// are neighbours in the shared columns with no room; an Insert that grew
// one in place would overwrite the next, and the comparison after every
// batch would see it.
func TestMutateAfterBulkLoad(t *testing.T) {
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 5}).Ads, awkwardAds()...)
	opts := Options{MaxWords: 4}
	mapping := remapping(ads)
	loaded, err := load(ads, mapping, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := grown(ads, mapping, opts)
	requireSameStructure(t, "before mutation", loaded, ref)

	// One existing ad per node, in ID order so both runs agree.
	var perNode []corpus.Ad
	loaded.eachNode(func(_ uint64, k uint32) {
		nd := loaded.nodes[k]
		r := nd.off + nd.n/2
		perNode = loaded.appendAds(perNode, r, r+1)
	})
	slices.SortFunc(perNode, func(a, b corpus.Ad) int { return int(a.ID) - int(b.ID) })
	rng := rand.New(rand.NewSource(6))
	nextID := uint64(1 << 40)
	for batch := 0; batch < 6; batch++ {
		for i, ad := range perNode {
			switch op := rng.Intn(4); {
			case op == 0 && batch > 0: // delete a record the node started with
				if got, want := loaded.Delete(ad.ID, ad.Phrase), ref.Delete(ad.ID, ad.Phrase); got != want {
					t.Fatalf("batch %d: Delete(%d, %q) = %v on the loaded index, %v on the grown one", batch, ad.ID, ad.Phrase, got, want)
				}
			case op == 1: // a new word set that lands wherever the heuristic puts it
				fresh := corpus.NewAd(nextID, fmt.Sprintf("%s fresh%d", ad.Phrase, i%7), corpus.Meta{})
				nextID++
				loaded.Insert(fresh)
				ref.Insert(fresh)
			default: // one more ad of a set the node holds: grows the node
				more := ad
				more.ID = nextID
				nextID++
				loaded.Insert(more)
				ref.Insert(more)
			}
		}
		requireSameStructure(t, fmt.Sprint("after batch ", batch), loaded, ref)
	}
}

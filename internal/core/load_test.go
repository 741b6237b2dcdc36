package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
	ix, _ := load(nil, nil, nil, opts, 1)
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
			id, _ := ix.voc.id(w)
			ix.voc.df[id]-- // Insert counts them again
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
	for i, c := range ix.table.ctrl {
		if c < ctrlFull {
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
			ix, err := load(ads, nil, tc.mapping, Options{}, workers)
			if ix != nil || err == nil || err.Error() != tc.want {
				t.Errorf("%s, %d workers: got (%v, %v), want refusal %q", tc.name, workers, ix, err, tc.want)
			}
		}
	}
}

// storage is every byte a built index holds.
func storage(ix *Index) []any {
	return []any{ix.ids, ix.bids, ix.ctr, ix.campaign, ix.sigs, ix.wcs, ix.sameKey, ix.wordAt, ix.textAt,
		ix.wordIDs, ix.arena, ix.voc.words, ix.voc.df, ix.voc.succ, ix.voc.table, ix.nodes, ix.free,
		ix.table.keys, ix.table.vals, ix.table.cnt, ix.table.ctrl, ix.locOf}
}

// TestBuildAtEqualsCopy: a build over ascending positions of a corpus is
// the build over the subset they name, copied out in order: the same
// nodes, document frequencies, stats and answers, and the same bytes, from
// one loader goroutine as from several. The awkward ads bring duplicate
// (ID, words) records, whose order only the input-order tie-break decides.
func TestBuildAtEqualsCopy(t *testing.T) {
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 6000, Seed: 7}).Ads, awkwardAds()...)
	ads = append(ads, awkwardAds()...)
	rand.New(rand.NewSource(7)).Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
	before := slices.Clone(ads)
	queries := make([][]string, 0, 200)
	for i := 0; i < len(ads) && len(queries) < cap(queries); i += 31 {
		queries = append(queries, append(slices.Clone(ads[i].Words), "extra"))
	}
	nodes := func(ix *Index) (out []any) {
		ix.Nodes(func(h uint64, records []corpus.Ad) { out = append(out, h, records) })
		return out
	}
	for part := 0; part < 3; part++ {
		var at []int32
		var subset []corpus.Ad
		for i := range ads {
			if WordHash(ads[i].Words)%3 == uint64(part) || i%5 == part {
				at = append(at, int32(i))
				subset = append(subset, ads[i])
			}
		}
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("part %d, %d workers", part, workers)
			got, _ := load(ads, at, nil, Options{MaxWords: 4}, workers)
			want, _ := load(subset, nil, nil, Options{MaxWords: 4}, workers)
			if !reflect.DeepEqual(nodes(got), nodes(want)) {
				t.Fatalf("%s: nodes differ from the copy build", what)
			}
			if !reflect.DeepEqual(got.DocFreqs(), want.DocFreqs()) || got.Stats() != want.Stats() {
				t.Fatalf("%s: doc freqs or stats differ:\n got %+v\nwant %+v", what, got.Stats(), want.Stats())
			}
			for _, q := range queries {
				if g, w := got.BroadMatch(q, nil), want.BroadMatch(q, nil); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: BroadMatch(%v) = %v, want %v", what, q, g, w)
				}
			}
			if !reflect.DeepEqual(storage(got), storage(want)) {
				t.Fatalf("%s: storage differs from the copy build", what)
			}
		}
		if !reflect.DeepEqual(storage(NewAt(ads, at, Options{})), storage(New(subset, Options{}))) {
			t.Fatalf("part %d: NewAt differs from New over the copy", part)
		}
	}
	if !reflect.DeepEqual(ads, before) {
		t.Fatal("a build over positions changed its input")
	}
}

// TestBulkLoadWorkerCountInvariant: the loaded index is a function of the
// input alone — the same columns, word IDs, arena, vocabulary, nodes and
// table, byte for byte, from one goroutine as from many.
func TestBulkLoadWorkerCountInvariant(t *testing.T) {
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 8000, Seed: 4}).Ads, awkwardAds()...)
	for _, mapping := range []map[string][]string{nil, remapping(ads)} {
		one, err := load(ads, nil, mapping, Options{MaxWords: 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 16} {
			many, err := load(ads, nil, mapping, Options{MaxWords: 4}, workers)
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
	loaded, err := load(ads, nil, mapping, opts, 3)
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

// TestLoadFromTextEqualsAdsLoad: an index loaded from corpus text through
// the reader (corpus.ReadColumns, then LoadFrozen) is the index NewFrozen
// builds over the ads corpus.Read returns for the same text, as ReadAds
// does: the same record columns, word IDs, arena, nodes, table,
// vocabulary and mapping, and the same Stats().Bytes — over several seeds,
// with exclusions, duplicate IDs, the awkward ads, blank lines and CRLF
// line ends, under the default placement and an explicit mapping. A build
// over some of the ads (LoadAt) is NewAt's over the same positions.
func TestLoadFromTextEqualsAdsLoad(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: seed, ExclusionProb: 0.3})
		c.Ads = append(append(c.Ads, awkwardAds()...), c.Ads[:50]...)
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		for i, line := range strings.SplitAfter(buf.String(), "\n") {
			if i%7 == 0 {
				text.WriteString("\n")
			}
			if i%5 == 0 {
				line = strings.Replace(line, "\n", "\r\n", 1)
			}
			text.WriteString(line)
		}
		parsed, err := corpus.Read(strings.NewReader(text.String()))
		if err != nil {
			t.Fatal(err)
		}
		ads := parsed.Ads
		for _, mapping := range []map[string][]string{nil, remapping(ads)} {
			for _, opts := range []Options{{}, {MaxWords: 3}} {
				what := fmt.Sprintf("seed %d MaxWords=%d mapped=%v", seed, opts.MaxWords, mapping != nil)
				in, err := corpus.ReadColumns(strings.NewReader(text.String()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := LoadFrozen(in, mapping, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewFrozen(ads, mapping, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameStructure(t, what, got, want)
				if !reflect.DeepEqual(storage(got), storage(want)) {
					t.Fatalf("%s: storage differs from the build over the parsed ads", what)
				}
				if g, w := got.Stats().Bytes, want.Stats().Bytes; g != w {
					t.Fatalf("%s: Stats().Bytes %+v, over the parsed ads %+v", what, g, w)
				}
			}
		}
		in, err := corpus.ReadColumns(strings.NewReader(text.String()))
		if err != nil {
			t.Fatal(err)
		}
		var at []int32
		for i := 0; i < len(ads); i += 3 {
			at = append(at, int32(i))
		}
		if !reflect.DeepEqual(storage(LoadAt(in, at, Options{})), storage(NewAt(ads, at, Options{}))) {
			t.Fatalf("seed %d: LoadAt differs from NewAt over the parsed ads", seed)
		}
	}
}

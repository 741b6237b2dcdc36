package hashindex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adindex/internal/compress"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/optimize"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

func mustAds(phrases ...string) []corpus.Ad {
	ads := make([]corpus.Ad, len(phrases))
	for i, p := range phrases {
		ads[i] = corpus.NewAd(uint64(i+1), p, corpus.Meta{BidMicros: int64(i) * 10})
	}
	return ads
}

func ids(ads []corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for i := range ads {
		out = append(out, ads[i].ID)
	}
	return out
}

func ptrIDs(ads []*corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for _, a := range ads {
		out = append(out, a.ID)
	}
	return out
}

func TestBasicLookup(t *testing.T) {
	ads := mustAds("used books", "comic books", "cheap books")
	ix, err := Build(core.New(ads, core.Options{}), Options{SuffixBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.BroadMatchText("cheap used books", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids(got), []uint64{1, 3}) {
		t.Errorf("got %v, want [1 3]", ids(got))
	}
	if got, _ := ix.BroadMatchText("books", nil); len(got) != 0 {
		t.Errorf("'books' matched %v", ids(got))
	}
	if got, _ := ix.BroadMatchText("", nil); got != nil {
		t.Errorf("empty query matched %v", ids(got))
	}
}

func TestEmptyCorpus(t *testing.T) {
	ix, err := Build(core.New(nil, core.Options{}), Options{SuffixBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ix.BroadMatchText("anything at all", nil); len(got) != 0 {
		t.Errorf("empty index matched %v", ids(got))
	}
	if ix.NumNodes() != 0 {
		t.Errorf("NumNodes = %d", ix.NumNodes())
	}
}

// The compressed structure must return exactly the same results as the
// core hash-table index, for every suffix width (including widths small
// enough to force many merges).
func TestEquivalenceWithCore(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 41})
	base := core.New(c.Ads, core.Options{})
	vocab := c.Vocabulary()
	rng := rand.New(rand.NewSource(7))
	for _, s := range []int{8, 12, 20} {
		ix, err := Build(base, Options{SuffixBits: s})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 120; trial++ {
			var qw []string
			if trial%2 == 0 {
				ad := &c.Ads[rng.Intn(len(c.Ads))]
				qw = append(append(qw, ad.Words...), vocab[rng.Intn(len(vocab))])
			} else {
				for i := 1 + rng.Intn(5); i > 0; i-- {
					qw = append(qw, vocab[rng.Intn(len(vocab))])
				}
			}
			q := textnorm.CanonicalSet(qw)
			want := ptrIDs(base.BroadMatch(q, nil))
			got, err := ix.BroadMatch(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(ids(got), want) {
				t.Fatalf("s=%d query %v: got %v want %v", s, q, ids(got), want)
			}
		}
	}
}

func TestEquivalenceUnderOptimizedMapping(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1200, Seed: 43})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 500, Seed: 44})
	gs := optimize.BuildGroups(c.Ads, wl)
	res := optimize.Optimize(gs, optimize.Options{})
	base, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(base, Options{SuffixBits: 14})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range wl.Queries {
		q := wl.Queries[qi].Words
		want := ptrIDs(base.BroadMatch(q, nil))
		got, err := ix.BroadMatch(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(ids(got), want) {
			t.Fatalf("query %v: got %v want %v", q, ids(got), want)
		}
	}
}

func TestSuffixCollisionMerge(t *testing.T) {
	// With 1-bit suffixes nearly everything merges; results must hold.
	ads := mustAds("a", "b", "c", "a b", "b c", "talk talk")
	ix, err := Build(core.New(ads, core.Options{}), Options{SuffixBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumNodes() > 2 {
		t.Errorf("NumNodes = %d with 1-bit suffix", ix.NumNodes())
	}
	got, _ := ix.BroadMatchText("a b c", nil)
	if !reflect.DeepEqual(ids(got), []uint64{1, 2, 3, 4, 5}) {
		t.Errorf("merged lookup = %v", ids(got))
	}
	got, _ = ix.BroadMatchText("talk talk", nil)
	if !reflect.DeepEqual(ids(got), []uint64{6}) {
		t.Errorf("duplicate-word query = %v", ids(got))
	}
}

func TestSizesReport(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 45})
	ix, err := Build(core.New(c.Ads, core.Options{}), Options{SuffixBits: 18})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Sizes()
	if s.Nodes != ix.NumNodes() || s.ArenaBytes != ix.ArenaBytes() {
		t.Errorf("Sizes inconsistent: %+v", s)
	}
	if s.SigEntropyBits <= 0 || s.OffEntropyBits <= 0 {
		t.Errorf("entropy bounds should be positive: %+v", s)
	}
	if s.HashTableBytes <= 0 {
		t.Errorf("hash table estimate: %+v", s)
	}
	// The entropy-bound footprint of the bit arrays must undercut the
	// hash-table estimate (the paper's ~9:1 claim direction).
	entropyBytes := (s.SigEntropyBits + s.OffEntropyBits) / 8
	if entropyBytes >= float64(s.HashTableBytes) {
		t.Errorf("compressed bound %v B not below hash table %d B", entropyBytes, s.HashTableBytes)
	}
}

func TestSelectSuffixBits(t *testing.T) {
	if got := SelectSuffixBits(0, 0, 64); got != 8 {
		t.Errorf("empty corpus s = %d, want 8", got)
	}
	small := SelectSuffixBits(1000, 100_000, 64)
	large := SelectSuffixBits(10_000_000, 1_000_000_000, 64)
	if small < 8 || small > 28 || large < 8 || large > 28 {
		t.Errorf("suffix bits out of range: %d, %d", small, large)
	}
	if large < small {
		t.Errorf("more nodes should not shrink the suffix: %d vs %d", small, large)
	}
	// Higher tradeoff (time matters more) never picks a shorter suffix.
	cheap := SelectSuffixBits(100_000, 10_000_000, 1)
	fast := SelectSuffixBits(100_000, 10_000_000, 10_000)
	if fast < cheap {
		t.Errorf("tradeoff inversion: λ=1 -> %d, λ=10000 -> %d", cheap, fast)
	}
}

func TestAutoSuffixSelection(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1000, Seed: 46})
	base := core.New(c.Ads, core.Options{})
	ix, err := Build(base, Options{}) // SuffixBits auto
	if err != nil {
		t.Fatal(err)
	}
	// The automatic width is SelectSuffixBits at λ = 64.
	nodes, total := 0, 0
	base.Nodes(func(_ uint64, records []corpus.Ad) {
		nodes++
		total += compress.RawSize(records)
	})
	if got, want := ix.Sizes().SuffixBits, SelectSuffixBits(nodes, total, 64); got != want || got < 8 {
		t.Errorf("auto suffix = %d, want SelectSuffixBits(%d, %d, 64) = %d", got, nodes, total, want)
	}
	got, err := ix.BroadMatchText(c.Ads[0].Phrase, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range got {
		if got[i].ID == c.Ads[0].ID {
			found = true
		}
	}
	if !found {
		t.Error("auto-suffix index lost an ad")
	}
}

func TestCountersCharged(t *testing.T) {
	ads := mustAds("a b", "a c")
	ix, err := Build(core.New(ads, core.Options{}), Options{SuffixBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	var c costmodel.Counters
	if _, err := ix.BroadMatchText("a b c", nil); err != nil {
		t.Fatal(err)
	}
	got, err := ix.BroadMatchText("a b c", &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("matches = %d", len(got))
	}
	if c.HashProbes != 7 || c.Queries != 1 || c.Matches != 2 {
		t.Errorf("counters: %+v", c)
	}
	if c.BytesScanned == 0 || c.NodesVisited == 0 {
		t.Errorf("no scan accounting: %+v", c)
	}
}

func TestInvalidOptions(t *testing.T) {
	for _, bits := range []int{-1, 31} {
		if _, err := Build(core.New(nil, core.Options{}), Options{SuffixBits: bits}); err == nil {
			t.Errorf("SuffixBits %d should be rejected", bits)
		}
	}
}

// Property: for random small corpora and random suffix widths, the
// compressed index agrees with a brute-force scan.
func TestCompressedQuick(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e", "f"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		ads := make([]corpus.Ad, n)
		for i := range ads {
			k := 1 + rng.Intn(3)
			phrase := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					phrase += " "
				}
				phrase += words[rng.Intn(len(words))]
			}
			ads[i] = corpus.NewAd(uint64(i+1), phrase, corpus.Meta{})
		}
		ix, err := Build(core.New(ads, core.Options{}), Options{SuffixBits: 1 + rng.Intn(16)})
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			var q []string
			for j := 0; j <= rng.Intn(4); j++ {
				q = append(q, words[rng.Intn(len(words))])
			}
			q = textnorm.CanonicalSet(q)
			got, err := ix.BroadMatch(q, nil)
			if err != nil {
				return false
			}
			var want []uint64
			for i := range ads {
				if textnorm.IsSubset(ads[i].Words, q) {
					want = append(want, ads[i].ID)
				}
			}
			if len(want) != len(got) {
				return false
			}
			for i := range got {
				if got[i].ID != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

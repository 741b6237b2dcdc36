package treeindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

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
		ads[i] = corpus.NewAd(uint64(i+1), p, corpus.Meta{})
	}
	return ads
}

func ids(ads []*corpus.Ad) []uint64 {
	out := make([]uint64, 0, len(ads))
	for _, a := range ads {
		out = append(out, a.ID)
	}
	return out
}

func TestBasicBroadMatch(t *testing.T) {
	ads := mustAds("used books", "comic books", "cheap books", "talk talk")
	ix := New(core.New(ads, core.Options{}))
	got := ids(ix.BroadMatchText("cheap used books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Errorf("got %v, want [1 3]", got)
	}
	if got := ix.BroadMatchText("books", nil); len(got) != 0 {
		t.Errorf("'books' matched %v", ids(got))
	}
	if got := ids(ix.BroadMatchText("talk talk band", nil)); !reflect.DeepEqual(got, []uint64{4}) {
		t.Errorf("duplicate-word query: %v", got)
	}
	if got := ix.BroadMatchText("", nil); got != nil {
		t.Errorf("empty query matched %v", ids(got))
	}
}

func TestEquivalenceWithCore(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 81})
	hash := core.New(c.Ads, core.Options{})
	tree := New(hash)
	vocab := c.Vocabulary()
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 300; trial++ {
		var qw []string
		if trial%2 == 0 {
			ad := &c.Ads[rng.Intn(len(c.Ads))]
			qw = append(append(qw, ad.Words...), vocab[rng.Intn(len(vocab))])
		} else {
			for i := 1 + rng.Intn(6); i > 0; i-- {
				qw = append(qw, vocab[rng.Intn(len(vocab))])
			}
		}
		q := textnorm.CanonicalSet(qw)
		a := ids(hash.BroadMatch(q, nil))
		b := ids(tree.BroadMatch(q, nil))
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d query %v: hash %v tree %v", trial, q, a, b)
		}
	}
}

func TestEquivalenceUnderMapping(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 83})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 400, Seed: 84})
	gs := optimize.BuildGroups(c.Ads, wl)
	res := optimize.Optimize(gs, optimize.Options{})
	// The trie walks every query word (existing-path pruning bounds its
	// work naturally), as the hash index does.
	hash, err := core.NewWithMapping(c.Ads, res.Mapping, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree := New(hash)
	for qi := range wl.Queries {
		q := wl.Queries[qi].Words
		a := ids(hash.BroadMatch(q, nil))
		b := ids(tree.BroadMatch(q, nil))
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %v: hash %v tree %v", q, a, b)
		}
	}
}

// The trie's key property: for long queries, the traversal visits only
// existing paths, far below the hash structure's probe bound.
func TestLongQueryPruning(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 85})
	hash := core.New(c.Ads, core.Options{MaxWords: 10})
	tree := New(hash)

	// A 20-word query built from corpus vocabulary.
	vocab := c.Vocabulary()
	rng := rand.New(rand.NewSource(86))
	var qw []string
	for len(qw) < 20 {
		qw = append(qw, vocab[rng.Intn(len(vocab))])
	}
	q := textnorm.CanonicalSet(qw)

	var ct, ch costmodel.Counters
	a := ids(tree.BroadMatch(q, &ct))
	b := ids(hash.BroadMatch(q, &ch))
	if !reflect.DeepEqual(a, b) && (len(a) != 0 || len(b) != 0) {
		t.Fatalf("results differ: %v vs %v", a, b)
	}
	if ct.HashProbes*10 > ch.HashProbes {
		t.Errorf("trie should prune: %d edge traversals vs %d hash probes",
			ct.HashProbes, ch.HashProbes)
	}
}

func TestLongPhraseRemapped(t *testing.T) {
	long := "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"
	ix := New(core.New(mustAds(long), core.Options{MaxWords: 4}))
	got := ids(ix.BroadMatchText(long+" more words", nil))
	if !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("long phrase lost after re-mapping: %v", got)
	}
	if s := ix.Stats(); s.MaxDepth > 4 {
		t.Errorf("locator depth %d exceeds MaxWords 4", s.MaxDepth)
	}
}

func TestStats(t *testing.T) {
	ads := mustAds("a", "a b", "a b", "c")
	ix := New(core.New(ads, core.Options{}))
	s := ix.Stats()
	if s.NumAds != 4 {
		t.Errorf("NumAds = %d", s.NumAds)
	}
	if s.DataNodes != 3 {
		t.Errorf("DataNodes = %d, want 3", s.DataNodes)
	}
	// root + a + b + c
	if s.TrieNodes != 4 {
		t.Errorf("TrieNodes = %d, want 4", s.TrieNodes)
	}
	if s.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.NodeBytes <= 0 {
		t.Errorf("NodeBytes = %d", s.NodeBytes)
	}
}

func TestChildOrderDeterministic(t *testing.T) {
	ix := New(core.New(mustAds("zeta", "alpha", "mike"), core.Options{}))
	words := make([]string, 0, 3)
	for _, c := range ix.root.children {
		words = append(words, c.word)
	}
	if !sort.StringsAreSorted(words) {
		t.Errorf("children unsorted: %v", words)
	}
}

// Property: trie equals brute force on random small universes.
func TestTreeQuick(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
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
		ix := New(core.New(ads, core.Options{MaxWords: 2}))
		for trial := 0; trial < 10; trial++ {
			var q []string
			for j := 0; j <= rng.Intn(4); j++ {
				q = append(q, words[rng.Intn(len(words))])
			}
			q = textnorm.CanonicalSet(q)
			got := ids(ix.BroadMatch(q, nil))
			var want []uint64
			for i := range ads {
				if textnorm.IsSubset(ads[i].Words, q) {
					want = append(want, ads[i].ID)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

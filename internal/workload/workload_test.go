package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

func testCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 42})
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCorpus(t)
	a := Generate(c, GenOptions{NumQueries: 500, Seed: 7})
	b := Generate(c, GenOptions{NumQueries: 500, Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different workloads")
	}
}

// TestGenerateRewriteKnobs: the typo/synonym knobs perturb queries
// deterministically, and zero-valued knobs change nothing (no extra rng
// draws), so pre-knob workloads regenerate byte-identically.
func TestGenerateRewriteKnobs(t *testing.T) {
	c := testCorpus(t)
	base := Generate(c, GenOptions{NumQueries: 400, Seed: 7})
	zero := Generate(c, GenOptions{NumQueries: 400, Seed: 7, TypoRate: 0, SynonymRate: 0})
	if !reflect.DeepEqual(base, zero) {
		t.Fatal("zero-valued rewrite knobs changed generation")
	}

	vocab := make(map[string]bool)
	for _, w := range c.Vocabulary() {
		vocab[w] = true
	}

	typo := Generate(c, GenOptions{NumQueries: 400, Seed: 7, TypoRate: 0.5})
	again := Generate(c, GenOptions{NumQueries: 400, Seed: 7, TypoRate: 0.5})
	if !reflect.DeepEqual(typo, again) {
		t.Fatal("typo generation is not deterministic")
	}
	offVocab := 0
	for i := range typo.Queries {
		for _, w := range typo.Queries[i].Words {
			if !vocab[w] {
				offVocab++
				break
			}
		}
	}
	if offVocab == 0 {
		t.Fatal("TypoRate=0.5 produced no out-of-vocabulary words")
	}

	classes, err := DeriveClasses(c.Vocabulary())
	if err != nil {
		t.Fatal(err)
	}
	if classes.NumClasses() == 0 {
		t.Fatal("DeriveClasses built no classes from the corpus vocabulary")
	}
	syn := Generate(c, GenOptions{NumQueries: 400, Seed: 7, SynonymRate: 1})
	if reflect.DeepEqual(syn, base) {
		t.Fatal("SynonymRate=1 changed nothing")
	}
	synSub := 0
	for i := range syn.Queries {
		for _, w := range syn.Queries[i].Words {
			if len(classes.Alternates(w)) > 0 {
				synSub++
				break
			}
		}
	}
	if synSub == 0 {
		t.Fatal("SynonymRate=1 produced no queries containing class members")
	}
}

func TestGenerateCountAndDistinct(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 1000, Seed: 1})
	if len(wl.Queries) != 1000 {
		t.Fatalf("got %d queries, want 1000", len(wl.Queries))
	}
	seen := make(map[string]bool)
	for i := range wl.Queries {
		k := wl.Queries[i].Key()
		if seen[k] {
			t.Fatalf("duplicate query %q", k)
		}
		seen[k] = true
		if len(wl.Queries[i].Words) == 0 {
			t.Fatal("empty query generated")
		}
		if !sort.StringsAreSorted(wl.Queries[i].Words) {
			t.Fatalf("query words not canonical: %v", wl.Queries[i].Words)
		}
	}
}

func TestFrequenciesPowerLaw(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 2000, Seed: 2, MaxFreq: 10000, ZipfS: 1.2})
	top := wl.TopK(1)[0].Freq
	if top != 10000 {
		t.Errorf("top frequency = %d, want 10000", top)
	}
	// All frequencies positive; tail at 1.
	minF := top
	for i := range wl.Queries {
		if wl.Queries[i].Freq <= 0 {
			t.Fatalf("non-positive frequency at %d", i)
		}
		if wl.Queries[i].Freq < minF {
			minF = wl.Queries[i].Freq
		}
	}
	if minF != 1 {
		t.Errorf("tail frequency = %d, want 1", minF)
	}
	// Power law: a small head should account for a large share of mass.
	total := wl.TotalFreq()
	headSum := 0
	for _, q := range wl.TopK(20) {
		headSum += q.Freq
	}
	if share := float64(headSum) / float64(total); share < 0.3 {
		t.Errorf("top-20 share %.2f too small for a power law", share)
	}
}

func TestQueriesHitCorpus(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 500, Seed: 3, HitProb: 0.9})
	// At least half of all queries must contain some ad's word set.
	hits := 0
	for i := range wl.Queries {
		q := &wl.Queries[i]
		for j := range c.Ads {
			if textnorm.IsSubset(c.Ads[j].Words, q.Words) {
				hits++
				break
			}
		}
	}
	if share := float64(hits) / float64(len(wl.Queries)); share < 0.5 {
		t.Errorf("only %.2f of queries broad-match anything; workload uncorrelated with corpus", share)
	}
}

func TestLongQueriesPresent(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 3000, Seed: 4, LongQueryProb: 0.05, HitProb: 0.5})
	h := wl.LengthHistogram()
	long := 0
	for l := 9; l < len(h); l++ {
		long += h[l]
	}
	if long == 0 {
		t.Error("no long queries (>=9 words) generated; long-query path untested")
	}
}

func TestTopK(t *testing.T) {
	wl := &Workload{Queries: []Query{
		{Words: []string{"a"}, Freq: 5},
		{Words: []string{"b"}, Freq: 50},
		{Words: []string{"c"}, Freq: 1},
	}}
	top := wl.TopK(2)
	if len(top) != 2 || top[0].Freq != 50 || top[1].Freq != 5 {
		t.Errorf("TopK(2) = %+v", top)
	}
	if got := wl.TopK(10); len(got) != 3 {
		t.Errorf("TopK(10) = %d entries, want 3", len(got))
	}
}

func TestStreamProportional(t *testing.T) {
	wl := &Workload{Queries: []Query{
		{Words: []string{"hot"}, Freq: 90},
		{Words: []string{"cold"}, Freq: 10},
	}}
	stream := wl.Stream(20000, 5)
	if len(stream) != 20000 {
		t.Fatalf("stream length %d", len(stream))
	}
	hot := 0
	for _, q := range stream {
		if q.Words[0] == "hot" {
			hot++
		}
	}
	share := float64(hot) / 20000
	if share < 0.87 || share > 0.93 {
		t.Errorf("hot share %.3f, want ~0.90", share)
	}
}

func TestStreamEdgeCases(t *testing.T) {
	empty := &Workload{}
	if s := empty.Stream(10, 1); s != nil {
		t.Errorf("Stream on empty workload = %v", s)
	}
	wl := &Workload{Queries: []Query{{Words: []string{"a"}, Freq: 1}}}
	if s := wl.Stream(0, 1); s != nil {
		t.Errorf("Stream(0) = %v", s)
	}
}

func TestParse(t *testing.T) {
	q := Parse("Cheap CHEAP books")
	want := []string{"books", "cheap_cheap"}
	if !reflect.DeepEqual(q.Words, want) || q.Freq != 1 {
		t.Errorf("Parse = %+v", q)
	}
}

func TestIORoundTrip(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 200, Seed: 6})
	var buf bytes.Buffer
	if err := wl.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(wl, back) {
		t.Fatal("workload round trip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"nofreq\n",
		"x\twords\n",
		"0\twords\n",
		"-3\twords\n",
		"5\t\n",
		"5\t!!!\n",
	}
	for _, s := range bad {
		if _, err := Read(bytes.NewBufferString(s)); err == nil {
			t.Errorf("Read(%q) should fail", s)
		}
	}
}

// Property: Stream only ever returns pointers into the workload's queries.
func TestStreamMembershipQuick(t *testing.T) {
	c := testCorpus(t)
	wl := Generate(c, GenOptions{NumQueries: 50, Seed: 9})
	members := make(map[*Query]bool, len(wl.Queries))
	for i := range wl.Queries {
		members[&wl.Queries[i]] = true
	}
	f := func(seed int64) bool {
		n := 1 + int(rand.New(rand.NewSource(seed)).Intn(100))
		for _, q := range wl.Stream(n, seed) {
			if !members[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTotalFreq(t *testing.T) {
	wl := &Workload{Queries: []Query{{Freq: 3}, {Freq: 4}}}
	if got := wl.TotalFreq(); got != 7 {
		t.Errorf("TotalFreq = %d, want 7", got)
	}
}

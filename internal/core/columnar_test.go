package core

import (
	"fmt"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// referenceIDs runs the retained pre-columnar AoS scan and returns the
// matched ad IDs in result order.
func referenceIDs(ix *Index, q []string) []uint64 {
	var ids []uint64
	for _, m := range ix.ReferenceBroadMatch(q, nil) {
		ids = append(ids, m.ID)
	}
	return ids
}

func columnarIDs(ix *Index, q []string) []uint64 {
	var ids []uint64
	for _, m := range ix.BroadMatch(q, nil) {
		ids = append(ids, m.ID)
	}
	return ids
}

func assertSameResults(t *testing.T, ix *Index, q []string) {
	t.Helper()
	want := referenceIDs(ix, q)
	got := columnarIDs(ix, q)
	if len(want) != len(got) {
		t.Fatalf("query %v: columnar found %d matches %v, reference %d %v",
			q, len(got), got, len(want), want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("query %v: result %d: columnar %d, reference %d", q, i, got[i], want[i])
		}
	}
}

// TestColumnarMatchesReferenceGenerated sweeps a generated corpus and
// workload: the columnar signature-prefiltered scan must agree with the
// retained AoS reference on every query.
func TestColumnarMatchesReferenceGenerated(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 81})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 600, Seed: 82})
	ix := New(c.Ads, Options{})
	for _, q := range wl.Queries {
		assertSameResults(t, ix, q.Words)
	}
}

// TestColumnarSignatureFalsePositives constructs records whose signatures
// are bit-subsets of the query signature without being word subsets, so
// the sweep passes them and the verification stages must reject them.
func TestColumnarSignatureFalsePositives(t *testing.T) {
	query := []string{"cheap", "running", "shoes"}
	qsig := SetSignature(query)

	// Hunt the synthetic vocabulary for words that are signature-compatible
	// with the query but not in it: classic Bloom false positives.
	vocab := corpus.MakeVocabulary(200000)
	var fps []string
	for _, w := range vocab {
		if w == "cheap" || w == "running" || w == "shoes" {
			continue
		}
		if SetSignature([]string{w})&^qsig == 0 {
			fps = append(fps, w)
			if len(fps) == 8 {
				break
			}
		}
	}
	if len(fps) < 2 {
		t.Skipf("vocabulary yielded only %d signature-compatible words", len(fps))
	}

	var ads []corpus.Ad
	id := uint64(1)
	add := func(phrase string) {
		ads = append(ads, corpus.NewAd(id, phrase, corpus.Meta{}))
		id++
	}
	add("cheap shoes")
	add("running shoes")
	add("cheap running shoes")
	// Pure false positives: signature-compatible words paired with a query
	// word. Re-mapping co-locates them at the {shoes} node (the paper's
	// grouped layout), so the query's scan actually sweeps past them —
	// with default one-set-per-node placement their nodes would never be
	// probed and the prefilter would have nothing to reject.
	mapping := map[string][]string{}
	for _, w := range fps {
		p := w + " shoes"
		add(p)
		mapping[textnorm.SetKey(textnorm.WordSet(p))] = []string{"shoes"}
	}
	ix, err := NewWithMapping(ads, mapping, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var c costmodel.Counters
	matches := ix.BroadMatch(textnorm.CanonicalSet(query), &c)
	for _, m := range matches {
		for _, w := range fps {
			if strings.Contains(m.Phrase, w) {
				t.Fatalf("signature false positive %q leaked into results", m.Phrase)
			}
		}
	}
	if len(matches) != 3 {
		t.Fatalf("got %d matches, want the 3 true subsets", len(matches))
	}
	// The crafted records must actually have exercised the verification
	// stages: they survive the sweep (checked, not rejected) yet fail
	// subset verification.
	if c.PhrasesChecked <= 3 {
		t.Fatalf("expected sweep survivors beyond the 3 matches (sigchecks=%d sigrejects=%d phrases=%d)",
			c.SignatureChecks, c.SignatureRejects, c.PhrasesChecked)
	}
	assertSameResults(t, ix, textnorm.CanonicalSet(query))
}

// TestColumnarAdversarialCorpora covers exclusion-heavy ads (fat metadata
// skews record sizes and the bytes accounting) and phrases at and beyond
// the max_words re-mapping boundary.
func TestColumnarAdversarialCorpora(t *testing.T) {
	vocab := corpus.MakeVocabulary(64)
	var ads []corpus.Ad
	id := uint64(1)

	// Exclusion-heavy: every ad drags a pile of negative keywords.
	for i := 0; i < 40; i++ {
		meta := corpus.Meta{Exclusions: vocab[i%8 : i%8+5]}
		phrase := vocab[i%16] + " " + vocab[(i+7)%16]
		ads = append(ads, corpus.NewAd(id, phrase, meta))
		id++
	}
	// max_words boundary: phrases of exactly MaxWords words and longer
	// (the latter are re-mapped to shorter locators).
	opts := Options{MaxWords: 4}
	for i := 0; i < 20; i++ {
		n := 4 + i%3 // 4, 5, 6 words
		words := make([]string, 0, n)
		for j := 0; j < n; j++ {
			words = append(words, vocab[(i*5+j*3)%32])
		}
		ads = append(ads, corpus.NewAd(id, strings.Join(words, " "), corpus.Meta{}))
		id++
	}
	ix := New(ads, opts)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Query with sliding windows over the vocabulary, including queries
	// longer than MaxWords (exercising the enumeration bound).
	for i := 0; i < 32; i++ {
		for _, width := range []int{2, 4, 6, 8} {
			words := make([]string, 0, width)
			for j := 0; j < width; j++ {
				words = append(words, vocab[(i+j)%32])
			}
			assertSameResults(t, ix, textnorm.CanonicalSet(words))
		}
	}
}

// TestColumnarUnderChurn mutates an index (inserts and binary-searched
// removes) and re-checks differential agreement plus structural
// invariants after every step.
func TestColumnarUnderChurn(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 800, Seed: 83})
	ix := New(c.Ads, Options{})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 60, Seed: 84})

	check := func() {
		t.Helper()
		for _, q := range wl.Queries[:20] {
			assertSameResults(t, ix, q.Words)
		}
	}
	check()
	// Delete a third of the corpus, verify, re-insert, verify.
	for i := 0; i < len(c.Ads); i += 3 {
		if !ix.Delete(c.Ads[i].ID, c.Ads[i].Phrase) {
			t.Fatalf("delete of ad %d missed", c.Ads[i].ID)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	check()
	for i := 0; i < len(c.Ads); i += 3 {
		ix.Insert(c.Ads[i])
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestCountersSignatureIdentity pins the accounting split: every record
// the sweep examines is either rejected by signature or verified as a
// phrase check, never both, never neither.
func TestCountersSignatureIdentity(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 85})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 86})
	// MaxWords 3 re-maps every longer phrase onto a 3-word locator, so
	// locator nodes hold records that are NOT subsets of every probing
	// query — the node shape where the signature sweep actually rejects
	// (homogeneous default-placement nodes hold only guaranteed matches).
	ix := New(c.Ads, Options{MaxWords: 3})
	var agg costmodel.Counters
	for _, q := range wl.Queries {
		ix.BroadMatch(q.Words, &agg)
	}
	// Workload queries are supersets of bid phrases, so everything they
	// scan matches. Aim a second round straight at the re-mapped records:
	// query = the record's locator plus padding the record does not
	// contain. Pads must be real vocabulary words (the index drops query
	// words it has never seen), just not words of the target ad. The
	// probe then hits the locator node, the sweep examines the record,
	// and the signature rejects it.
	pool := make([]string, 0, 64)
	seenPool := map[string]bool{}
	for i := 0; i < len(c.Ads) && len(pool) < 64; i++ {
		for _, w := range c.Ads[i].Words {
			if !seenPool[w] {
				seenPool[w] = true
				pool = append(pool, w)
			}
		}
	}
	for i := range c.Ads {
		if len(c.Ads[i].Words) <= 3 {
			continue
		}
		in := map[string]bool{}
		for _, w := range c.Ads[i].Words {
			in[w] = true
		}
		q := append([]string(nil), ix.Locator(c.Ads[i].Words)...)
		for _, w := range pool {
			if len(q) >= 10 {
				break
			}
			if !in[w] {
				q = append(q, w)
			}
		}
		ix.BroadMatch(textnorm.CanonicalSet(q), &agg)
	}
	if agg.SignatureChecks != agg.SignatureRejects+agg.PhrasesChecked {
		t.Fatalf("sigchecks=%d != sigrejects=%d + phrases=%d",
			agg.SignatureChecks, agg.SignatureRejects, agg.PhrasesChecked)
	}
	if agg.SignatureRejects == 0 {
		t.Fatal("workload produced no signature rejects; prefilter inert")
	}
	if agg.Matches > agg.PhrasesChecked {
		t.Fatalf("matches=%d > phrases checked=%d", agg.Matches, agg.PhrasesChecked)
	}
}

// TestEnumSubsetsScratchZeroAlloc pins the satellite fix for the visited
// dedup: with a warmed Scratch even a 12-word query against a
// dense table — the case that was quadratic under the linear visited scan
// — runs the whole match allocation-free, proving the open-addressed seen
// set stays pooled.
func TestEnumSubsetsScratchZeroAlloc(t *testing.T) {
	// Dense subset structure: every pair and triple of a small vocabulary,
	// so a long query hits many distinct nodes.
	vocab := corpus.MakeVocabulary(12)
	var ads []corpus.Ad
	id := uint64(1)
	for i := 0; i < len(vocab); i++ {
		for j := i + 1; j < len(vocab); j++ {
			ads = append(ads, corpus.NewAd(id, vocab[i]+" "+vocab[j], corpus.Meta{}))
			id++
			for k := j + 1; k < len(vocab); k++ {
				ads = append(ads, corpus.NewAd(id, fmt.Sprintf("%s %s %s", vocab[i], vocab[j], vocab[k]), corpus.Meta{}))
				id++
			}
		}
	}
	ix := New(ads, Options{})
	query := textnorm.CanonicalSet(vocab) // 12 words: every subset within the walk bound

	var sc Scratch
	var dst []*corpus.Ad
	dst = ix.AppendBroadMatch(dst[:0], query, nil, &sc)
	if len(dst) == 0 {
		t.Fatal("warm-up query found nothing")
	}
	if len(sc.visited) < 50 {
		t.Fatalf("expected a dense candidate set, got %d nodes", len(sc.visited))
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst = ix.AppendBroadMatch(dst[:0], query, nil, &sc)
	})
	if allocs != 0 {
		t.Fatalf("long-query AppendBroadMatch allocates %.1f objects/op with warm scratch, want 0", allocs)
	}
}

// TestNodeSetDedup exercises the open-addressed set directly across
// growth, reset, and generation wrap.
func TestNodeSetDedup(t *testing.T) {
	var s nodeSet
	for round := 0; round < 3; round++ {
		for i := 1; i <= 300; i++ {
			if !s.add(uint64(i)) {
				t.Fatalf("round %d: id %d reported duplicate on first add", round, i)
			}
			if s.add(uint64(i)) {
				t.Fatalf("round %d: id %d admitted twice", round, i)
			}
		}
		s.reset()
		if s.n != 0 {
			t.Fatal("reset left occupants")
		}
	}
	// Force the generation wrap: stale stamps must not read as live.
	s.gen = ^uint32(0)
	if !s.add(7) {
		t.Fatal("id 7 reported duplicate in wrapped generation")
	}
	s.reset()
	if s.gen == 0 {
		t.Fatal("generation 0 must be skipped on wrap")
	}
	if !s.add(7) {
		t.Fatal("id 7 reported duplicate after wrap reset")
	}
}

// FuzzSignaturePrefilter pins signature-prefiltered broad match ≡ naive
// subset scan on arbitrary corpora and queries.
func FuzzSignaturePrefilter(f *testing.F) {
	f.Add("used books\ncomic books\ncheap used books", "cheap used books today")
	f.Add("a b c\nb c d\nc d e\na", "a b c d e")
	f.Add("talk talk\ntalk", "talk talk talk")
	f.Fuzz(func(t *testing.T, phrases, query string) {
		lines := strings.Split(phrases, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		var ads []corpus.Ad
		id := uint64(1)
		for _, p := range lines {
			if len(p) > 200 {
				p = p[:200]
			}
			if len(textnorm.WordSet(p)) == 0 {
				continue
			}
			ads = append(ads, corpus.NewAd(id, p, corpus.Meta{}))
			id++
		}
		if len(ads) == 0 {
			return
		}
		if len(query) > 200 {
			query = query[:200]
		}
		ix := New(ads, Options{MaxWords: 3, MaxQueryWords: 6})
		q := textnorm.WordSet(query)
		want := referenceIDs(ix, q)
		got := columnarIDs(ix, q)
		if len(want) != len(got) {
			t.Fatalf("query %q: columnar %v, reference %v", query, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %q: result %d: columnar %d, reference %d", query, i, got[i], want[i])
			}
		}
	})
}

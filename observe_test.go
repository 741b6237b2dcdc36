package adindex

import (
	"fmt"
	"strings"
	"testing"

	"adindex/internal/textnorm"
)

// sameShardWords returns n distinct single-word queries whose canonical
// set keys all land on the same sampler shard, so a test can fill one
// shard to its cap deterministically.
func sameShardWords(t *testing.T, n int) []string {
	t.Helper()
	target := -1
	var words []string
	for i := 0; len(words) < n && i < 100000; i++ {
		w := fmt.Sprintf("kw%d", i)
		sh := shardIndex(textnorm.SetKey([]string{w}))
		if target == -1 {
			target = sh
		}
		if sh == target {
			words = append(words, w)
		}
	}
	if len(words) < n {
		t.Fatalf("could not find %d same-shard words", n)
	}
	return words
}

// TestObserveEvictionDeterministic pins the sampler's approximate-LFU
// eviction in the regime where it is exact: with a shard cap at or below
// the eviction sample size, the scan covers the whole shard, so the
// unique lowest-frequency entry is always the victim regardless of map
// iteration order.
func TestObserveEvictionDeterministic(t *testing.T) {
	// 16 shards * cap 4; the per-shard cap (4) is below the eviction
	// sample size (8).
	s := newObserveSampler(16 * 4)
	if s.shardCap != 4 {
		t.Fatalf("shardCap = %d, want 4", s.shardCap)
	}
	words := sameShardWords(t, 6)

	// Fill the shard with distinct frequencies 5, 4, 3, 2 — no ties, so
	// the eviction victim is forced.
	freqs := []int{5, 4, 3, 2}
	for i, f := range freqs {
		for j := 0; j < f; j++ {
			s.Observe(words[i])
		}
	}
	if got := s.Distinct(); got != 4 {
		t.Fatalf("distinct after fill = %d, want 4", got)
	}

	// Admitting a 5th key must evict exactly the freq-2 entry.
	s.Observe(words[4])
	want := map[string]int{words[0]: 5, words[1]: 4, words[2]: 3, words[4]: 1}
	assertWorkload(t, s, want)

	// Re-observing the evicted key admits it again, now evicting the
	// freq-1 newcomer (the unique minimum).
	s.Observe(words[3])
	want = map[string]int{words[0]: 5, words[1]: 4, words[2]: 3, words[3]: 1}
	assertWorkload(t, s, want)
}

func assertWorkload(t *testing.T, s *observeSampler, want map[string]int) {
	t.Helper()
	wl := s.Workload()
	got := map[string]int{}
	for _, q := range wl.Queries {
		if len(q.Words) != 1 {
			t.Fatalf("unexpected multi-word sample %v", q.Words)
		}
		got[q.Words[0]] = q.Freq
	}
	if len(got) != len(want) {
		t.Fatalf("sampled keys = %v, want %v", got, want)
	}
	for w, f := range want {
		if got[w] != f {
			t.Fatalf("freq[%s] = %d, want %d (all: %v)", w, got[w], f, got)
		}
	}
}

// TestObserveCapAcrossShards checks the sampler cap is enforced as a
// global bound: observing far more distinct queries than the cap never
// pushes the sample above it, and repeat queries keep counting.
func TestObserveCapAcrossShards(t *testing.T) {
	// An index samples DefaultMaxObservedQueries sets, 62 500 per shard.
	if got := New(Options{}).observed.shardCap; got != 62_500 {
		t.Fatalf("sampler shard cap %d, want 1 000 000 / 16 = 62 500", got)
	}
	const maxObserved = 64
	ix := New(Options{})
	ix.observed = newObserveSampler(maxObserved)
	for i := 0; i < 1000; i++ {
		ix.Observe(fmt.Sprintf("unique query %d", i))
	}
	if got := ix.ObservedQueries(); got > maxObserved {
		t.Fatalf("ObservedQueries = %d, exceeds the cap %d", got, maxObserved)
	}
	if got := ix.ObservedQueries(); got < maxObserved/2 {
		t.Fatalf("ObservedQueries = %d, sampler retaining far less than cap %d", got, maxObserved)
	}

	// A hot query observed repeatedly keeps accumulating frequency even
	// at cap (the sampler evicts cold entries, not counts).
	s := newObserveSampler(maxObserved)
	for i := 0; i < 1000; i++ {
		s.Observe("hot query")
		s.Observe(fmt.Sprintf("cold %d", i))
	}
	hotKey := textnorm.SetKey([]string{"hot", "query"})
	var hotFreq int
	for _, q := range s.Workload().Queries {
		if textnorm.SetKey(q.Words) == hotKey {
			hotFreq = q.Freq
		}
	}
	if hotFreq != 1000 {
		t.Fatalf("hot query freq = %d, want 1000 (evicted despite being hottest?)", hotFreq)
	}
}

// TestObserveWordsIsObserve: the word-set entry point records exactly what
// Observe records for the same query — same key, same frequency, its own
// copy of the words — and the frequent case (a set already sampled)
// allocates nothing.
func TestObserveWordsIsObserve(t *testing.T) {
	s := newObserveSampler(1024)
	long := "alpha beta gamma delta epsilon " + strings.Repeat("zeta", 40) // a set key beyond the stack buffer
	for _, q := range []string{"used cheap books", "Talk Talk", long} {
		words := textnorm.WordSet(q)
		s.Observe(q)
		s.ObserveWords(words)
		clear(words) // the sample must not alias the caller's buffer
	}
	s.ObserveWords(nil) // an empty query is not a sample
	got := s.Workload().Queries
	if len(got) != 3 || s.Occurrences() != 6 {
		t.Fatalf("sample holds %d sets of %d occurrences, want 3 of 6", len(got), s.Occurrences())
	}
	for _, q := range got {
		if q.Freq != 2 || len(q.Words) == 0 || q.Words[0] == "" {
			t.Errorf("entry %v has freq %d, want 2 with its words intact", q.Words, q.Freq)
		}
	}

	if raceEnabled {
		return
	}
	words := textnorm.WordSet("used cheap books")
	if allocs := testing.AllocsPerRun(200, func() { s.ObserveWords(words) }); allocs != 0 {
		t.Errorf("ObserveWords of a sampled set allocates %.1f times, want 0", allocs)
	}
}

// TestObserveSamplerBounded: a stream of distinct sets far past the cap,
// then sets evicted and readmitted round-robin, leaves the sampler holding
// no more than its cap of sets while it counts every occurrence.
func TestObserveSamplerBounded(t *testing.T) {
	const maxObserved = 64
	ix := New(Options{})
	ix.observed = newObserveSampler(maxObserved)
	for i := 0; i < 10_000; i++ {
		ix.Observe(fmt.Sprintf("distinct query %d", i))
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			ix.Observe(fmt.Sprintf("repeated query %d", i))
		}
	}
	if got := ix.ObservedQueries(); got > maxObserved {
		t.Fatalf("sample holds %d sets, cap %d", got, maxObserved)
	}
	if got := ix.observed.Occurrences(); got != 14_000 {
		t.Fatalf("sampler counted %d occurrences, want 14000", got)
	}
}

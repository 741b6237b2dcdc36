package adindex

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
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
		sh := int(setHash([]byte(w)) % observeShards)
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

// slotOf returns the slot monitoring the single-word set w.
func slotOf(t *testing.T, s *observeSampler, w string) observeSlot {
	t.Helper()
	key := []byte(w)
	h := setHash(key)
	sh := &s.shards[h%observeShards]
	i := sh.lookup(key, h)
	if i < 0 {
		t.Fatalf("%q is not monitored", w)
	}
	return sh.slots[i]
}

// TestObserveEvictionDeterministic pins the Space-Saving rule on one
// shard: at the cap, a new set takes the slot of the least counted set,
// with count min+1 and error min, and a set that lost its slot comes back
// the same way, not with its old count.
func TestObserveEvictionDeterministic(t *testing.T) {
	// 16 shards * cap 4.
	s := newObserveSampler(16 * 4)
	if s.shardCap != 4 {
		t.Fatalf("shardCap = %d, want 4", s.shardCap)
	}
	words := sameShardWords(t, 5)

	// Fill the shard with distinct counts 7, 6, 4, 2: the minimum is
	// unique at every step below.
	freqs := []int{7, 6, 4, 2}
	for i, f := range freqs {
		for j := 0; j < f; j++ {
			s.Observe(words[i])
		}
	}
	if got := s.Distinct(); got != 4 {
		t.Fatalf("distinct after fill = %d, want 4", got)
	}
	if sl := slotOf(t, s, words[3]); sl.count != 2 || sl.err != 0 {
		t.Fatalf("below the cap: count %d error %d, want exact 2 and 0", sl.count, sl.err)
	}

	// A 5th set takes the count-2 slot: count 3, error 2.
	s.Observe(words[4])
	assertWorkload(t, s, map[string]int{words[0]: 7, words[1]: 6, words[2]: 4, words[4]: 3})
	if sl := slotOf(t, s, words[4]); sl.count != 3 || sl.err != 2 {
		t.Fatalf("newcomer: count %d error %d, want 3 and 2", sl.count, sl.err)
	}

	// The set that lost its slot comes back into the new minimum (3, the
	// newcomer's): count 4, error 3.
	s.Observe(words[3])
	assertWorkload(t, s, map[string]int{words[0]: 7, words[1]: 6, words[2]: 4, words[3]: 4})
	if sl := slotOf(t, s, words[3]); sl.count != 4 || sl.err != 3 {
		t.Fatalf("readmitted: count %d error %d, want 4 and 3", sl.count, sl.err)
	}
	if sl := slotOf(t, s, words[0]); sl.count != 7 || sl.err != 0 {
		t.Fatalf("head: count %d error %d, want exact 7 and 0", sl.count, sl.err)
	}
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

// checkObserveShard verifies a shard's structure: every slot is found
// under its own key, the table holds exactly the slots, and the heap is
// a min-heap whose positions the slots record.
func checkObserveShard(t *testing.T, sh *observeShard) {
	t.Helper()
	for s, sl := range sh.slots {
		if got := sh.lookup([]byte(sl.key), sl.hash); got != int32(s) {
			t.Fatalf("slot %d (%q) looked up as %d", s, sl.key, got)
		}
		if sh.heap[sl.pos] != int32(s) {
			t.Fatalf("slot %d records heap position %d, which holds %d", s, sl.pos, sh.heap[sl.pos])
		}
	}
	entries := 0
	for _, e := range sh.table {
		if e != 0 {
			entries++
		}
	}
	if entries != len(sh.slots) || len(sh.heap) != len(sh.slots) {
		t.Fatalf("%d table entries and %d heap entries for %d slots", entries, len(sh.heap), len(sh.slots))
	}
	for i := 1; i < len(sh.heap); i++ {
		if sh.less(i, (i-1)/2) {
			t.Fatalf("heap position %d counts less than its parent", i)
		}
	}
}

// TestObserveHashCollision: two sets with one hash are two slots, never
// one merged count, and the table keeps both reachable when one of them
// loses its slot.
func TestObserveHashCollision(t *testing.T) {
	var sh observeShard
	const h = 42
	for _, k := range []string{"alpha", "beta", "alpha"} {
		sh.observeLocked([]byte(k), h, 2)
	}
	checkObserveShard(t, &sh)
	if a, b := sh.lookup([]byte("alpha"), h), sh.lookup([]byte("beta"), h); a < 0 || b < 0 || a == b ||
		sh.slots[a].count != 2 || sh.slots[b].count != 1 {
		t.Fatalf("colliding sets: slots %d and %d in %+v, want alpha 2 and beta 1 apart", a, b, sh.slots)
	}
	// At the cap a third set with the same hash takes beta's slot.
	sh.observeLocked([]byte("gamma"), h, 2)
	sh.observeLocked([]byte("alpha"), h, 2)
	checkObserveShard(t, &sh)
	if sh.lookup([]byte("beta"), h) >= 0 {
		t.Fatal("beta still monitored after gamma took the minimum slot")
	}
	if g, a := sh.lookup([]byte("gamma"), h), sh.lookup([]byte("alpha"), h); g < 0 || a < 0 ||
		sh.slots[g].count != 2 || sh.slots[g].err != 1 || sh.slots[a].count != 3 {
		t.Fatalf("after the takeover: %+v, want gamma 2 (error 1) and alpha 3", sh.slots)
	}
}

// TestObserveSpaceSavingBound pins the Space-Saving guarantee on a seeded
// Zipf stream of N occurrences over far more distinct sets than the k
// slots. Per shard (N_s occurrences, k_s slots) it is a theorem: the
// counts sum to N_s, the least count is at most N_s/k_s, every set seen
// more often is monitored, and each estimate bounds the true count from
// above, within its error. The stream's shards are balanced enough that
// every set seen more than N/k times is monitored too.
func TestObserveSpaceSavingBound(t *testing.T) {
	const (
		k        = 1024
		distinct = 20_000
		n        = 200_000
	)
	s := newObserveSampler(k)
	names := make([]string, distinct)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, distinct-1)
	truth := make(map[string]uint64)
	for i := 0; i < n; i++ {
		w := names[zipf.Uint64()]
		truth[w]++
		s.ObserveWords([]string{w})
	}
	if len(truth) <= k {
		t.Fatalf("stream has %d distinct sets, want more than k = %d", len(truth), k)
	}
	if got := s.Occurrences(); got != n {
		t.Fatalf("Occurrences = %d, want %d", got, n)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		checkObserveShard(t, sh)
		var sum, least uint64
		for j, sl := range sh.slots {
			sum += sl.count
			if j == 0 || sl.count < least {
				least = sl.count
			}
			if tc := truth[sl.key]; sl.count-sl.err > tc || tc > sl.count {
				t.Errorf("%q: estimate %d error %d, true count %d", sl.key, sl.count, sl.err, tc)
			}
		}
		if sum != sh.total || least*uint64(s.shardCap) > sh.total {
			t.Errorf("shard %d: counts sum to %d over %d occurrences, least %d above N_s/k_s", i, sum, sh.total, least)
		}
	}
	for w, tc := range truth {
		key := []byte(w)
		h := setHash(key)
		sh := &s.shards[h%observeShards]
		if tc*uint64(s.shardCap) > sh.total && sh.lookup(key, h) < 0 {
			t.Errorf("%q seen %d times > N_s/k_s = %d/%d is not monitored", w, tc, sh.total, s.shardCap)
		}
		if tc*k > n && sh.lookup(key, h) < 0 {
			t.Errorf("%q seen %d times > N/k = %d/%d is not monitored", w, tc, n, k)
		}
	}
}

// TestObserveSketchQuality: at the production k, on a stream with more
// distinct sets than k, the mapping Optimize plans over the sketch,
// priced on the stream's exact workload, costs within 1.005x of the
// mapping planned over the exact workload itself.
func TestObserveSketchQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("two Optimize runs over 150k queries are slow under -race")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 20_000, Seed: 1})
	gen := workload.Generate(c, workload.GenOptions{NumQueries: 150_000, Seed: 2})
	stream := gen.Stream(2_000_000, 3)

	s := newObserveSampler(maxObservedQueries)
	truth := make(map[*workload.Query]int)
	for _, q := range stream {
		s.ObserveWords(q.Words)
		truth[q]++
	}
	if len(truth) <= maxObservedQueries {
		t.Fatalf("stream has %d distinct sets, want more than k = %d", len(truth), maxObservedQueries)
	}
	full := &workload.Workload{}
	for q, f := range truth {
		full.Queries = append(full.Queries, workload.Query{Words: q.Words, Freq: f})
	}

	opts := optimize.Options{}
	gs := optimize.BuildGroups(c.Ads, full)
	exact := optimize.Optimize(gs, opts)
	sketch := optimize.Optimize(optimize.BuildGroups(c.Ads, s.Workload()), opts)
	ratio := optimize.EvaluateMapping(gs, sketch.Mapping, opts) / exact.ModeledCost
	t.Logf("%d distinct sets, %d monitored: sketch plan costs %.4fx the exact plan", len(truth), s.Distinct(), ratio)
	if ratio > 1.005 {
		t.Errorf("sketch plan costs %.4fx the exact plan, want at most 1.005x", ratio)
	}
}

// TestObserveMemoryBounded: once the sample is full, more distinct sets
// replace monitored ones and the sample's memory stays where it was.
func TestObserveMemoryBounded(t *testing.T) {
	ix := New(Options{})
	observe := func(from, to int) {
		for i := from; i < to; i++ {
			ix.Observe(fmt.Sprintf("distinct query %d", i))
		}
	}
	observe(0, 70_000)
	at70k := ix.ObservedBytes()
	observe(70_000, 300_000)
	at300k := ix.ObservedBytes()
	t.Logf("ObservedBytes: %d after 70k distinct sets, %d after 300k (%d monitored)", at70k, at300k, ix.ObservedQueries())
	if at300k > at70k*11/10 || at300k < at70k*9/10 {
		t.Errorf("ObservedBytes went %d -> %d from 70k to 300k distinct sets, want within 10%%", at70k, at300k)
	}
	if got := ix.ObservedQueries(); got != maxObservedQueries {
		t.Errorf("ObservedQueries = %d, want the cap %d", got, maxObservedQueries)
	}
}

// TestObserveCapAcrossShards checks the sampler cap is enforced as a
// global bound: observing far more distinct queries than the cap never
// pushes the sample above it, and repeat queries keep counting.
func TestObserveCapAcrossShards(t *testing.T) {
	// An index samples maxObservedQueries sets, 4 096 per shard.
	if got := New(Options{}).observed.shardCap; got != 4096 {
		t.Fatalf("sampler shard cap %d, want 65 536 / 16 = 4 096", got)
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
// copy of the words — a monitored set allocates nothing, and a new set at
// the cap allocates at most its key.
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
	full := newObserveSampler(64)
	fresh := make([][]string, 1200)
	for i := range fresh {
		fresh[i] = []string{fmt.Sprintf("cold%d", i), "query"}
	}
	for _, w := range fresh[:1000] {
		full.ObserveWords(w)
	}
	next := 1000
	if allocs := testing.AllocsPerRun(100, func() { full.ObserveWords(fresh[next]); next++ }); allocs > 1 {
		t.Errorf("ObserveWords of a new set at the cap allocates %.1f times, want at most 1", allocs)
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

// TestObserveConcurrent: writers past the cap beside readers of the
// sample leave every shard consistent, with its counts summing to its
// occurrences.
func TestObserveConcurrent(t *testing.T) {
	const writers, perWriter = 4, 2000
	s := newObserveSampler(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Observe(fmt.Sprintf("hot %d", i%8))
				s.Observe(fmt.Sprintf("cold %d %d", w, i))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Workload()
				s.Bytes()
				s.Distinct()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := s.Occurrences(); got != 2*writers*perWriter {
		t.Fatalf("Occurrences = %d, want %d", got, 2*writers*perWriter)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		checkObserveShard(t, sh)
		var sum uint64
		for _, sl := range sh.slots {
			sum += sl.count
		}
		if sum != sh.total {
			t.Errorf("shard %d: counts sum to %d over %d occurrences", i, sum, sh.total)
		}
	}
}

// BenchmarkObserveWords times one ObserveWords on a full production-size
// sample: "hot" repeats 64 monitored sets, "cold" sends sets the sample
// does not hold, each taking the least counted slot.
func BenchmarkObserveWords(b *testing.B) {
	pool := make([]string, 4*maxObservedQueries)
	for i := range pool {
		pool[i] = fmt.Sprintf("q%d", i)
	}
	b.Run("hot", func(b *testing.B) {
		s := newObserveSampler(maxObservedQueries)
		for _, w := range pool[:maxObservedQueries] {
			s.ObserveWords([]string{w})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ObserveWords(pool[i%64 : i%64+1])
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := newObserveSampler(maxObservedQueries)
		for _, w := range pool[:maxObservedQueries] {
			s.ObserveWords([]string{w})
		}
		rest := pool[maxObservedQueries:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(rest)
			s.ObserveWords(rest[j : j+1])
		}
	})
}

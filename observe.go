package adindex

import (
	"sync"

	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// observeShards is the shard count of the workload sampler. Sixteen
// single-mutex shards keep Observe contention negligible at serving
// concurrency while staying small enough that per-shard caps divide
// evenly.
const observeShards = 16

// observeSampler records the observed query workload behind per-shard
// mutexes, so Observe never contends with queries (which are lock-free)
// and rarely with other Observe calls. Shards are merged on demand by
// Workload / Distinct (Optimize and ExportWorkload time).
type observeSampler struct {
	// shardCap bounds each shard; the global cap (an index's is
	// DefaultMaxObservedQueries) is divided evenly, so totals stay at or
	// below it.
	shardCap int
	shards   [observeShards]observeShard
}

// observeShard is one shard of the sample: one map from a set's canonical
// key, the only copy of its words (Workload splits it back with
// textnorm.SplitKey), to its occurrences since the set was admitted; and
// the occurrences the shard has recorded in all, evicted sets included.
type observeShard struct {
	mu    sync.Mutex
	m     map[string]*int
	total uint64
}

func newObserveSampler(maxObserved int) *observeSampler {
	cap := maxObserved / observeShards
	if cap < 1 {
		cap = 1
	}
	s := &observeSampler{shardCap: cap}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*int)
	}
	return s
}

// shardIndex picks the shard for a canonical set key (FNV-1a; a set key
// always lands on the same shard, so per-key frequency counts never
// split).
func shardIndex[K string | []byte](key K) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % observeShards)
}

// Observe records one occurrence of query.
func (os *observeSampler) Observe(query string) {
	sc := getScratch()
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	os.ObserveWords(sc.words)
	putScratch(sc)
}

// ObserveWords records one occurrence of the query whose canonical word
// set is words, for callers that have already tokenized it. words is only
// read. The frequent case (a set already sampled) costs one short critical
// section on one shard and no allocation: the set key is built on the
// stack and only becomes a string when the map has to keep it.
func (os *observeSampler) ObserveWords(words []string) {
	if len(words) == 0 {
		return
	}
	var buf [128]byte
	key := textnorm.AppendSetKey(buf[:0], words)
	sh := &os.shards[shardIndex(key)]
	sh.mu.Lock()
	n, ok := sh.m[string(key)]
	if !ok {
		if len(sh.m) >= os.shardCap {
			sh.evictLocked()
		}
		n = new(int)
		sh.m[string(key)] = n
	}
	*n++
	sh.total++
	sh.mu.Unlock()
}

// evictLocked removes the lowest-frequency entry among a small random
// sample of the shard (Go map iteration order is randomized, so iterating
// a few entries is a cheap approximate-LFU sample). Holding only a sample
// keeps eviction O(1) regardless of the cap, and the high-frequency head
// of a power-law workload survives.
func (sh *observeShard) evictLocked() {
	const sample = 8
	victim, min := "", -1
	i := 0
	for key, n := range sh.m {
		if min < 0 || *n < min {
			victim, min = key, *n
		}
		if i++; i >= sample {
			break
		}
	}
	if min >= 0 {
		delete(sh.m, victim)
	}
}

// Distinct returns the number of distinct sampled query sets.
func (os *observeSampler) Distinct() int {
	total := 0
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// Occurrences returns how many query occurrences the sampler has recorded
// since it was made, evicted sets included.
func (os *observeSampler) Occurrences() uint64 {
	var total uint64
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		total += sh.total
		sh.mu.Unlock()
	}
	return total
}

// Workload merges all shards into a workload snapshot. A key only ever
// lives on one shard, so concatenation needs no cross-shard merging; the
// keys are split into words after each shard's lock is released.
func (os *observeSampler) Workload() *workload.Workload {
	type setCount struct {
		key string
		n   int
	}
	var counts []setCount
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		for key, n := range sh.m {
			counts = append(counts, setCount{key, *n})
		}
		sh.mu.Unlock()
	}
	wl := &workload.Workload{Queries: make([]workload.Query, len(counts))}
	for i, c := range counts {
		wl.Queries[i] = workload.Query{Words: textnorm.SplitKey(c.key), Freq: c.n}
	}
	return wl
}

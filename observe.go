package adindex

import (
	"sync"
	"sync/atomic"

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
	// shardCap bounds each shard; the global Options.MaxObservedQueries
	// cap is divided evenly, so totals stay at or below the configured cap.
	shardCap int
	shards   [observeShards]observeShard
	// deltaEpoch counts ExportDelta drains. The adaptation loop pairs a
	// drained delta with the remap epoch it was planned against; this
	// counter lets tests and metrics distinguish rounds.
	deltaEpoch atomic.Uint64
}

// observeShard is one shard of the sample: one map from a set's canonical
// key, the only copy of its words (Workload and ExportDelta split it back
// with textnorm.SplitKey), to both of its counts.
type observeShard struct {
	mu sync.Mutex
	m  map[string]*observeCount
	// dirty lists the keys whose pending count went 0 → 1 since the last
	// drain, as the map's own strings, so a drain visits the sets observed
	// since and not the whole sample. A set evicted after it was listed
	// stays listed (and is listed again if readmitted) until a drain or
	// compactLocked skips it.
	dirty []string
}

// observeCount is one sampled set's counts.
type observeCount struct {
	key     string // the map key, for dirty
	freq    int    // occurrences since the set was admitted
	pending int    // occurrences since the last ExportDelta drain
}

func newObserveSampler(maxObserved int) *observeSampler {
	cap := maxObserved / observeShards
	if cap < 1 {
		cap = 1
	}
	s := &observeSampler{shardCap: cap}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*observeCount)
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
	c, ok := sh.m[string(key)]
	if !ok {
		if len(sh.m) >= os.shardCap {
			sh.evictLocked()
		}
		c = &observeCount{key: string(key)}
		sh.m[c.key] = c
	}
	c.freq++
	if c.pending++; c.pending == 1 {
		if len(sh.dirty) >= 2*os.shardCap {
			// Only evictions leave dead keys behind, so this runs at the
			// cap alone; it leaves at most shardCap keys, so it runs at
			// most once per shardCap admits.
			sh.compactLocked()
		}
		sh.dirty = append(sh.dirty, c.key)
	}
	sh.mu.Unlock()
}

// compactLocked drops from dirty the keys of evicted sets and the
// duplicate a readmitted set leaves behind, keeping each set with a
// pending count once.
func (sh *observeShard) compactLocked() {
	kept := sh.dirty[:0]
	for _, key := range sh.dirty {
		if c := sh.m[key]; c != nil && c.pending > 0 {
			c.pending = -c.pending // kept: a duplicate of key now fails the test
			kept = append(kept, c.key)
		}
	}
	for _, key := range kept {
		c := sh.m[key]
		c.pending = -c.pending
	}
	clear(sh.dirty[len(kept):]) // the dropped strings are garbage only once unreferenced
	sh.dirty = kept
}

// evictLocked removes the lowest-frequency entry among a small random
// sample of the shard (Go map iteration order is randomized, so iterating
// a few entries is a cheap approximate-LFU sample). Holding only a sample
// keeps eviction O(1) regardless of the cap, and the high-frequency head
// of a power-law workload survives. The victim's undrained count goes with
// it: at the cap the delta is approximate, as the sample is.
func (sh *observeShard) evictLocked() {
	const sample = 8
	var victim *observeCount
	n := 0
	for _, c := range sh.m {
		if victim == nil || c.freq < victim.freq {
			victim = c
		}
		if n++; n >= sample {
			break
		}
	}
	if victim != nil {
		delete(sh.m, victim.key)
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

// setCount is a sampled set's key and one of its counts, copied out under
// a shard lock; toWorkload splits the keys into words after it is released.
type setCount struct {
	key string
	n   int
}

func toWorkload(counts []setCount) *workload.Workload {
	wl := &workload.Workload{Queries: make([]workload.Query, len(counts))}
	for i, c := range counts {
		wl.Queries[i] = workload.Query{Words: textnorm.SplitKey(c.key), Freq: c.n}
	}
	return wl
}

// Workload merges all shards into a workload snapshot. A key only ever
// lives on one shard, so concatenation needs no cross-shard merging.
func (os *observeSampler) Workload() *workload.Workload {
	var counts []setCount
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		for key, c := range sh.m {
			counts = append(counts, setCount{key, c.freq})
		}
		sh.mu.Unlock()
	}
	return toWorkload(counts)
}

// ExportDelta drains the pending counts accumulated since the previous
// drain and returns them as a workload, plus the drain's epoch
// (monotonically increasing; the first drain returns 1). It walks only the
// dirty lists, never the whole sample, so its cost is proportional to
// traffic since the last round, not to the sample cap. Shards are drained
// one lock at a time — Observe on other shards proceeds concurrently, and
// a key observed on a not-yet-drained shard during the walk simply lands
// in this or the next delta.
func (os *observeSampler) ExportDelta() (*workload.Workload, uint64) {
	var counts []setCount
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		for _, key := range sh.dirty {
			// A set listed twice (evicted, readmitted) drains once; an
			// evicted one took its count with it.
			if c := sh.m[key]; c != nil && c.pending > 0 {
				counts = append(counts, setCount{c.key, c.pending})
				c.pending = 0
			}
		}
		clear(sh.dirty)
		sh.dirty = sh.dirty[:0]
		sh.mu.Unlock()
	}
	return toWorkload(counts), os.deltaEpoch.Add(1)
}

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

type observeShard struct {
	mu sync.Mutex
	m  map[string]*workload.Query
	// pending accumulates per-key frequency counts since the last
	// ExportDelta drain. It shares keys with m but holds its own Query
	// values, so draining never disturbs the long-lived sample and
	// eviction from m never loses a pending count.
	pending map[string]*workload.Query
}

func newObserveSampler(maxObserved int) *observeSampler {
	cap := maxObserved / observeShards
	if cap < 1 {
		cap = 1
	}
	s := &observeSampler{shardCap: cap}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*workload.Query)
		s.shards[i].pending = make(map[string]*workload.Query)
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
// read: the sample keeps its own copy on first admit. The frequent case (a
// set already sampled) costs one short critical section on one shard and
// no allocation: the set key is built on the stack and only becomes a
// string when a map has to keep it.
func (os *observeSampler) ObserveWords(words []string) {
	if len(words) == 0 {
		return
	}
	var buf [128]byte
	key := textnorm.AppendSetKey(buf[:0], words)
	sh := &os.shards[shardIndex(key)]
	sh.mu.Lock()
	var kept []string
	var owned string // key as a string, made once if a map has to keep it
	if q, ok := sh.m[string(key)]; ok {
		q.Freq++
		kept = q.Words
	} else {
		if len(sh.m) >= os.shardCap {
			sh.evictLocked()
		}
		kept = make([]string, len(words))
		copy(kept, words)
		owned = string(key)
		sh.m[owned] = &workload.Query{Words: kept, Freq: 1}
	}
	if p, ok := sh.pending[string(key)]; ok {
		p.Freq++
	} else {
		if len(sh.pending) >= 2*os.shardCap {
			// The delta buffer outgrew its drain cadence (adaptation
			// stopped, or a vocabulary shift flooded new keys). Sample-evict
			// like the long-lived map: an approximate delta is fine, an
			// unbounded one is not.
			sh.pendingEvictLocked()
		}
		if owned == "" {
			owned = string(key)
		}
		sh.pending[owned] = &workload.Query{Words: kept, Freq: 1}
	}
	sh.mu.Unlock()
}

// pendingEvictLocked mirrors evictLocked for the delta buffer.
func (sh *observeShard) pendingEvictLocked() {
	const sample = 8
	victim := ""
	victimFreq := 0
	n := 0
	for key, q := range sh.pending {
		if victim == "" || q.Freq < victimFreq {
			victim, victimFreq = key, q.Freq
		}
		if n++; n >= sample {
			break
		}
	}
	if victim != "" {
		delete(sh.pending, victim)
	}
}

// evictLocked removes the lowest-frequency entry among a small random
// sample of the shard (Go map iteration order is randomized, so iterating
// a few entries is a cheap approximate-LFU sample). Holding only a sample
// keeps eviction O(1) regardless of the cap, and the high-frequency head
// of a power-law workload survives.
func (sh *observeShard) evictLocked() {
	const sample = 8
	victim := ""
	victimFreq := 0
	n := 0
	for key, q := range sh.m {
		if victim == "" || q.Freq < victimFreq {
			victim, victimFreq = key, q.Freq
		}
		if n++; n >= sample {
			break
		}
	}
	if victim != "" {
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

// Workload merges all shards into a workload snapshot. A key only ever
// lives on one shard, so concatenation needs no cross-shard merging.
func (os *observeSampler) Workload() *workload.Workload {
	wl := &workload.Workload{}
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		for _, q := range sh.m {
			wl.Queries = append(wl.Queries, *q)
		}
		sh.mu.Unlock()
	}
	return wl
}

// ExportDelta drains the per-shard delta buffers accumulated since the
// previous drain and returns them as a workload, plus the drain's epoch
// (monotonically increasing; the first drain returns 1). Unlike Workload
// it never walks the long-lived sample, so its cost is proportional to
// traffic since the last round, not to the sample cap. Shards are
// drained one lock at a time — Observe on other shards proceeds
// concurrently, and a key observed on a not-yet-drained shard during the
// walk simply lands in this or the next delta.
func (os *observeSampler) ExportDelta() (*workload.Workload, uint64) {
	wl := &workload.Workload{}
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		if len(sh.pending) > 0 {
			for _, q := range sh.pending {
				wl.Queries = append(wl.Queries, *q)
			}
			sh.pending = make(map[string]*workload.Query)
		}
		sh.mu.Unlock()
	}
	return wl, os.deltaEpoch.Add(1)
}

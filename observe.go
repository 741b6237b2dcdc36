package adindex

import (
	"sync"
	"unsafe"

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
// and rarely with other Observe calls. Each shard is a Space-Saving top-k
// summary (Metwally, Agrawal and El Abbadi, ICDT 2005) of the sets that
// hash to it: at most shardCap monitored sets, each with an estimated
// count and the error that estimate may carry. Below the cap every count
// is exact. At the cap a new set takes the slot of the least counted one
// and inherits its count, so a shard that has recorded N occurrences
// never undercounts a set, overcounts it by at most N/shardCap, and
// monitors every set seen more than N/shardCap times. Shards are merged
// on demand by Workload / Distinct (Optimize and adaptation-tick time).
type observeSampler struct {
	// shardCap bounds each shard; the global cap (an index's is
	// maxObservedQueries) is divided evenly, so totals stay at or
	// below it.
	shardCap int
	shards   [observeShards]observeShard
}

// observeSlot is one monitored set.
type observeSlot struct {
	hash uint64 // setHash of key
	// count estimates the set's occurrences: the true count lies in
	// [count-err, count].
	count uint64
	// err is the count the set inherited when it took the slot: 0 for a
	// set admitted below the cap.
	err uint64
	// key is the set's canonical key, the only copy of its words
	// (Workload splits it back with textnorm.SplitKey).
	key string
	// pos is the slot's position in the shard's heap.
	pos int32
}

// observeSlotBytes is what one slot costs besides its key: the slot and
// its heap entry.
const observeSlotBytes = int(unsafe.Sizeof(observeSlot{})) + 4

// observeShard is one shard of the sample: the monitored slots, a min-heap
// of slot indices ordered by count, and an open-addressing table from a
// set's hash to its slot. A hash match whose key differs is another set:
// probing goes on past it. The arrays grow by doubling up to the shard's
// cap and then stay; total is the occurrences the shard has recorded in
// all, sets that lost their slot included.
type observeShard struct {
	mu    sync.Mutex
	slots []observeSlot
	heap  []int32
	// table holds slot index + 1 per entry, 0 when empty; its length is a
	// power of two at least twice cap(slots), so a probe stays short.
	table    []int32
	total    uint64
	keyBytes int
}

func newObserveSampler(maxObserved int) *observeSampler {
	return &observeSampler{shardCap: max(maxObserved/observeShards, 1)}
}

// setHash is FNV-1a over a canonical set key. Its residue picks the shard,
// so a set always lands on the same one and its count never splits.
func setHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return h
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
// read. It costs one short critical section on one shard. A monitored set
// allocates nothing: the set key is built on the stack and only becomes a
// string when a slot has to keep it.
func (os *observeSampler) ObserveWords(words []string) {
	if len(words) == 0 {
		return
	}
	var buf [128]byte
	key := textnorm.AppendSetKey(buf[:0], words)
	h := setHash(key)
	sh := &os.shards[h%observeShards]
	sh.mu.Lock()
	sh.observeLocked(key, h, os.shardCap)
	sh.mu.Unlock()
}

// observeLocked counts one occurrence of the set with key and hash h in a
// shard holding at most capacity sets.
func (sh *observeShard) observeLocked(key []byte, h uint64, capacity int) {
	sh.total++
	if s := sh.lookup(key, h); s >= 0 {
		sh.slots[s].count++
		sh.down(int(sh.slots[s].pos))
		return
	}
	var s int32
	if len(sh.slots) < capacity {
		if len(sh.slots) == cap(sh.slots) {
			sh.grow(capacity)
		}
		s = int32(len(sh.slots))
		sh.slots = append(sh.slots, observeSlot{count: 1, pos: int32(len(sh.heap))})
		sh.heap = append(sh.heap, s)
		sh.up(len(sh.heap) - 1)
	} else {
		// The least counted set gives up its slot; the new set inherits
		// its count as error.
		s = sh.heap[0]
		sh.unindex(s)
		sl := &sh.slots[s]
		sh.keyBytes -= len(sl.key)
		sl.err = sl.count
		sl.count++
		sh.down(0)
	}
	sl := &sh.slots[s]
	sl.hash, sl.key = h, string(key)
	sh.keyBytes += len(key)
	sh.index(s)
}

// home is the table position where the probe for hash h starts.
func (sh *observeShard) home(h uint64) int {
	return int(h*0x9E3779B97F4A7C15>>32) & (len(sh.table) - 1)
}

// lookup returns the slot monitoring the set with key and hash h, or -1.
func (sh *observeShard) lookup(key []byte, h uint64) int32 {
	if len(sh.table) == 0 {
		return -1
	}
	mask := len(sh.table) - 1
	for i := sh.home(h); sh.table[i] != 0; i = (i + 1) & mask {
		s := sh.table[i] - 1
		if sl := &sh.slots[s]; sl.hash == h && sl.key == string(key) {
			return s
		}
	}
	return -1
}

// index enters slot s in the table at the first empty position of its
// probe sequence.
func (sh *observeShard) index(s int32) {
	mask := len(sh.table) - 1
	i := sh.home(sh.slots[s].hash)
	for sh.table[i] != 0 {
		i = (i + 1) & mask
	}
	sh.table[i] = s + 1
}

// unindex removes slot s from the table, shifting the entries behind it
// back so that no probe sequence crosses an empty position.
func (sh *observeShard) unindex(s int32) {
	mask := len(sh.table) - 1
	i := sh.home(sh.slots[s].hash)
	for sh.table[i] != s+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill i unless its home lies after i, in
		// (i, j]: it must stay reachable from its home.
		k := sh.home(sh.slots[sh.table[j]-1].hash)
		if (j-k)&mask >= (j-i)&mask {
			sh.table[i] = sh.table[j]
			i = j
		}
	}
	sh.table[i] = 0
}

// grow doubles the slot arrays, up to capacity, and rebuilds the table
// at twice their size.
func (sh *observeShard) grow(capacity int) {
	n := min(max(2*cap(sh.slots), 8), capacity)
	sh.slots = append(make([]observeSlot, 0, n), sh.slots...)
	sh.heap = append(make([]int32, 0, n), sh.heap...)
	size := 16
	for size < 2*n {
		size *= 2
	}
	sh.table = make([]int32, size)
	for s := range sh.slots {
		sh.index(int32(s))
	}
}

// up and down restore the heap order after the count at heap position i
// fell or rose.
func (sh *observeShard) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !sh.less(i, p) {
			return
		}
		sh.swap(i, p)
		i = p
	}
}

func (sh *observeShard) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(sh.heap) {
			return
		}
		if r := m + 1; r < len(sh.heap) && sh.less(r, m) {
			m = r
		}
		if !sh.less(m, i) {
			return
		}
		sh.swap(i, m)
		i = m
	}
}

func (sh *observeShard) less(a, b int) bool {
	return sh.slots[sh.heap[a]].count < sh.slots[sh.heap[b]].count
}

func (sh *observeShard) swap(a, b int) {
	sh.heap[a], sh.heap[b] = sh.heap[b], sh.heap[a]
	sh.slots[sh.heap[a]].pos = int32(a)
	sh.slots[sh.heap[b]].pos = int32(b)
}

// Distinct returns the number of distinct sampled query sets.
func (os *observeSampler) Distinct() int {
	total := 0
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		total += len(sh.slots)
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

// Bytes returns the memory the sample holds: the slot arrays, the tables
// and the key bytes.
func (os *observeSampler) Bytes() int {
	total := 0
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		total += cap(sh.slots)*observeSlotBytes + 4*len(sh.table) + sh.keyBytes
		sh.mu.Unlock()
	}
	return total
}

// Workload merges all shards into a workload snapshot, each monitored set
// with its estimated count. A key only ever lives on one shard, so
// concatenation needs no cross-shard merging; the keys are split into
// words after each shard's lock is released.
func (os *observeSampler) Workload() *workload.Workload {
	type setCount struct {
		key string
		n   uint64
	}
	var counts []setCount
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		for _, sl := range sh.slots {
			counts = append(counts, setCount{sl.key, sl.count})
		}
		sh.mu.Unlock()
	}
	wl := &workload.Workload{Queries: make([]workload.Query, len(counts))}
	for i, c := range counts {
		wl.Queries[i] = workload.Query{Words: textnorm.SplitKey(c.key), Freq: int(c.n)}
	}
	return wl
}

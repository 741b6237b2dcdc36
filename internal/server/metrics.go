// Metrics: a stdlib-only registry of atomic counters and a fixed-bucket
// latency histogram for the serving layer.
package server

import (
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"adindex"
	"adindex/internal/durable"
	"adindex/internal/shard"
)

// Histogram is a fixed-bucket concurrent histogram of nanosecond samples
// over latencyBounds. All methods are safe for concurrent use; Observe is a
// binary search over the table plus three atomic adds. Create one with
// NewLatencyHistogram.
type Histogram struct {
	// buckets[i] counts the samples below latencyBounds[i]; samples at or
	// past the last bound land in one overflow bucket, which reports the
	// last bound.
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // samples rounded to integers
}

// latencyBounds is the latency bucket table, in nanoseconds: [0, 5ms) in
// 100µs steps so sub-millisecond serving latencies (cache hits are tens
// of microseconds) stay distinguishable, then [5ms, 305ms) in the 5 ms
// buckets of the paper's Figure 9, so /metrics output is directly
// comparable to the latency distributions reported there.
var latencyBounds = func() []float64 {
	const fine, coarse = 50, 60
	b := make([]float64, 0, fine+coarse)
	for i := 1; i <= fine; i++ {
		b = append(b, float64(i)*float64(100*time.Microsecond))
	}
	for i := 1; i <= coarse; i++ {
		b = append(b, float64(5*time.Millisecond)*float64(i+1))
	}
	return b
}()

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, len(latencyBounds)+1)}
}

// Observe records one sample (negative samples count as zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	// The first bound above v: a sample equal to a bound belongs to the
	// next bucket.
	i, onEdge := slices.BinarySearch(latencyBounds, v)
	if onEdge {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v + 0.5))
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// latencyUpper returns the bound bucket i reports.
func latencyUpper(i int) float64 {
	return latencyBounds[min(i, len(latencyBounds)-1)]
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// observed samples: the upper edge of the bucket containing that rank.
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return latencyUpper(i)
		}
	}
	return latencyUpper(len(h.buckets) - 1)
}

// Mean returns the mean observed sample (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// HistogramSnapshot is the JSON form of the latency histogram: only
// non-empty buckets are emitted, keyed by their upper bound.
type HistogramSnapshot struct {
	Count    uint64           `json:"count"`
	MeanUS   int64            `json:"mean_us"`
	P50US    int64            `json:"p50_us"`
	P95US    int64            `json:"p95_us"`
	P99US    int64            `json:"p99_us"`
	BucketUS []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket.
type BucketSnapshot struct {
	UpperUS int64  `json:"le_us"` // exclusive upper bound, microseconds
	Count   uint64 `json:"count"`
}

// latencySnapshot captures a nanosecond histogram in microseconds.
// Concurrent Observe calls may land between bucket reads; the snapshot is
// approximate under load, exact when quiescent.
func latencySnapshot(h *Histogram) HistogramSnapshot {
	us := func(ns float64) int64 { return time.Duration(ns).Microseconds() }
	s := HistogramSnapshot{
		Count:  h.Count(),
		MeanUS: us(h.Mean()),
		P50US:  us(h.Quantile(0.50)),
		P95US:  us(h.Quantile(0.95)),
		P99US:  us(h.Quantile(0.99)),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.BucketUS = append(s.BucketUS, BucketSnapshot{UpperUS: us(latencyUpper(i)), Count: n})
		}
	}
	return s
}

// Registry aggregates the serving-layer metrics. All fields are updated
// with atomic operations. Create with NewRegistry.
type Registry struct {
	// Per-match-type request counts (accepted requests only).
	ReqBroad, ReqExact, ReqPhrase atomic.Uint64
	// BadRequests counts 4xx rejections (missing q, bad type, a body
	// over the size limit).
	BadRequests atomic.Uint64
	// Shed counts 503 responses from admission control.
	Shed atomic.Uint64
	// Timeouts counts requests that hit their deadline while queued.
	Timeouts atomic.Uint64
	// InFlight is the number of admitted /search requests currently
	// executing.
	InFlight atomic.Int64
	// Mutations counts /insert + /delete calls served.
	Mutations atomic.Uint64
	// Degraded counts remote-mode /search responses served from a
	// partial backend set (shards skipped or metadata missing).
	Degraded atomic.Uint64
	// BackendErrors counts remote-mode /search requests that failed
	// outright because too few backends answered.
	BackendErrors atomic.Uint64
	// NotReady counts requests refused with 503 because durable recovery
	// had not installed the index yet.
	NotReady atomic.Uint64
	// BudgetTruncated counts queries whose budget (cost, deadline or walk
	// bound) exhausted mid-match, answered with a flagged verified subset.
	BudgetTruncated atomic.Uint64
	// QuarantineRejects counts requests fast-rejected at admission
	// because their fingerprint is quarantined; Panics counts match-path
	// panics contained by the handler.
	QuarantineRejects, Panics atomic.Uint64
	// Rewrite-path totals, accumulated per approximate (rewrite=on)
	// query: queries served, variants planned, index probes spent,
	// queries whose expansion a budget clipped, and results contributed
	// by fuzzy / synonym variants beyond the exact probe.
	RewriteQueries, RewriteVariants, RewriteProbes atomic.Uint64
	RewriteClipped                                 atomic.Uint64
	RewriteFuzzyHits, RewriteSynonymHits           atomic.Uint64
	// Latency is the end-to-end /search latency in nanoseconds (queue
	// wait + match + encode) for admitted requests.
	Latency *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{Latency: NewLatencyHistogram()}
}

// noteRewrite folds one rewritten query's stats into the registry.
func (r *Registry) noteRewrite(st adindex.RewriteStats) {
	r.RewriteQueries.Add(1)
	r.RewriteVariants.Add(uint64(st.Variants))
	r.RewriteProbes.Add(uint64(st.Probes))
	if st.Clipped {
		r.RewriteClipped.Add(1)
	}
	r.RewriteFuzzyHits.Add(uint64(st.FuzzyHits))
	r.RewriteSynonymHits.Add(uint64(st.SynonymHits))
}

func (r *Registry) reqCounter(matchType string) *atomic.Uint64 {
	switch matchType {
	case "exact":
		return &r.ReqExact
	case "phrase":
		return &r.ReqPhrase
	default:
		return &r.ReqBroad
	}
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	Requests struct {
		Broad  uint64 `json:"broad"`
		Exact  uint64 `json:"exact"`
		Phrase uint64 `json:"phrase"`
		Bad    uint64 `json:"bad"`
	} `json:"requests"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
		// Stores counts the puts that stored a reply: a key's second
		// sighting. Refreshes counts the puts into a present entry: the
		// miss after a write outdated it (or a put that raced a hit).
		// Each interns the reply's ads into the shared table.
		Stores    uint64 `json:"stores"`
		Refreshes uint64 `json:"refreshes"`
		// Entries is how many replies are stored, in both segments.
		Entries int `json:"entries"`
		// Probation is how many of those entries sit in the probation
		// segment: replies not hit since they were demoted.
		Probation int `json:"probation"`
		// Ghosts is how many keys were seen once and not since: the
		// fingerprints in the shards' ghost rings, whose key's next put
		// stores its reply. A ghost is not an entry.
		Ghosts int `json:"ghosts"`
		// Bytes is what the entries own: their keys, the bodies of
		// replies without ads and 4 bytes per reference to a shared ad.
		// The ghost rings are fixed arrays allocated with the cache (per
		// probation slot, two 8-byte ring slots and four to eight 4-byte
		// table positions) and are not counted.
		Bytes int64 `json:"bytes"`
		// SharedAds and SharedBytes are the distinct encoded ads the
		// entries reference and their bytes, each counted once.
		SharedAds   int   `json:"shared_ads"`
		SharedBytes int64 `json:"shared_bytes"`
	} `json:"cache"`
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`
	InFlight int64  `json:"in_flight"`
	// Overload is the overload-armor section: shedding state and typed
	// shed counts from the limiter, budget truncations from the match
	// path, and quarantine/panic containment activity.
	Overload      OverloadSnapshot  `json:"overload"`
	Mutations     uint64            `json:"mutations"`
	Degraded      uint64            `json:"degraded"`
	BackendErrors uint64            `json:"backend_errors"`
	NotReady      uint64            `json:"not_ready"`
	Epoch         uint64            `json:"epoch"`
	Latency       HistogramSnapshot `json:"latency"`
	// Memory is the process's Go heap: what the last collection found
	// live, and the size at which the next one starts (the runtime lets
	// the heap grow to about twice its live size in between).
	Memory MemorySnapshot `json:"memory"`
	// Index is present once a local index is installed: overlay folds
	// and the time they took.
	Index *IndexSnapshot `json:"index,omitempty"`
	// Rewrite is present when the local index has approximate broad
	// match enabled (even before the first rewritten query runs).
	Rewrite *RewriteMetricsSnapshot `json:"rewrite,omitempty"`
	// Backends is present in remote mode only: the distributed client's
	// retry/breaker/degradation counters and per-shard replica health.
	Backends *BackendsSnapshot `json:"backends,omitempty"`
	// Durability is present for durable (or recovering) local servers:
	// the recovery report from startup plus live persistence counters.
	Durability *DurabilitySnapshot `json:"durability,omitempty"`
	// Elastic is present when an elastic cluster is attached: routing epoch,
	// in-flight migration phase, completed/aborted handoffs, and
	// per-shard placement signals (slots, ads, matches served).
	Elastic *shard.RebalanceStatus `json:"elastic,omitempty"`
}

// IndexSnapshot is the index section of /metrics: overlay folds (each a
// rebuild of the whole base, on the goroutine of the write that filled the
// overlay) since the index was opened, WAL replay included, and the
// seconds they took; how long the last build of a base took, the start's
// or the latest fold's; the re-mappings installed since the index was
// opened (Index.Remaps: /optimize, -mapping and -adapt-interval ticks);
// and the memory the base holds, by column.
type IndexSnapshot struct {
	Folds            uint64  `json:"folds"`
	FoldSecondsTotal float64 `json:"fold_seconds_total"`
	BuildSeconds     float64 `json:"build_seconds"`
	Remaps           uint64  `json:"remaps"`
	// ObservedQueries is how many distinct query word sets the workload
	// sampler holds (Index.ObservedQueries).
	ObservedQueries int `json:"observed_queries"`
	// ObservedBytes is the memory the sampler holds (Index.ObservedBytes):
	// bounded by its 65 536 slots however many sets pass through it.
	ObservedBytes int `json:"observed_bytes"`
	// Bytes is the base index's memory by column (Index.IndexBytes).
	Bytes adindex.IndexBytes `json:"bytes"`
}

// MemorySnapshot is the memory section of /metrics, read from
// runtime/metrics.
type MemorySnapshot struct {
	HeapLiveBytes uint64 `json:"heap_live_bytes"` // /gc/heap/live:bytes
	HeapGoalBytes uint64 `json:"heap_goal_bytes"` // /gc/heap/goal:bytes
	// OffHeapBytes is the index memory mapped outside the Go heap
	// (adindex.OffHeapBytes): the regions of the base indexes not yet
	// unmapped. With the heap goal it accounts for the resident set.
	OffHeapBytes uint64 `json:"offheap_bytes"`
	// PeakRSSBytes is the process's high-water resident set (VmHWM in
	// /proc/self/status), or 0 where that file does not exist: the peak
	// of start-up and serving together, which the heap numbers miss.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
	// ReadyPeakRSSBytes is VmHWM as it stood when the server turned
	// ready (/readyz first answering 200): the start's own peak, which
	// tells it apart from a higher one serving reached since. 0 before
	// then and where VmHWM is unknown.
	ReadyPeakRSSBytes uint64 `json:"ready_peak_rss_bytes"`
	// GCCPUSeconds is the CPU time the collector has spent since the
	// process started (/cpu/classes/gc/total:cpu-seconds), an estimate
	// the runtime updates at each collection.
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
}

// readMemory reads the memory section.
func readMemory() MemorySnapshot {
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	var m MemorySnapshot
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.HeapLiveBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.HeapGoalBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		m.GCCPUSeconds = samples[2].Value.Float64()
	}
	m.OffHeapBytes = uint64(adindex.OffHeapBytes())
	m.PeakRSSBytes = peakRSS()
	return m
}

// peakRSS reads VmHWM from /proc/self/status, in bytes; 0 where there is
// no such file or line.
func peakRSS() uint64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// OverloadSnapshot is the overload-armor section of /metrics.
type OverloadSnapshot struct {
	// Shedding reports whether CoDel queue-delay shedding is active now.
	Shedding bool `json:"shedding"`
	// ShedOverload / ShedQueueFull split the limiter's rejections by
	// cause: standing-queue delay vs the hard queue bound.
	ShedOverload  uint64 `json:"shed_overload"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	// BudgetTruncated counts flagged-partial answers.
	BudgetTruncated uint64 `json:"budget_truncated"`
	// Panics counts contained match-path panics; the quarantine fields
	// describe the poison-query table.
	Panics              uint64 `json:"panics"`
	QuarantineEntries   int    `json:"quarantine_entries"`
	QuarantineRejects   uint64 `json:"quarantine_rejects"`
	QuarantinePromotion uint64 `json:"quarantine_promotions"`
}

// RewriteMetricsSnapshot is the rewrite section of /metrics.
type RewriteMetricsSnapshot struct {
	Queries     uint64 `json:"queries"`
	Variants    uint64 `json:"variants"`
	Probes      uint64 `json:"probes"`
	Clipped     uint64 `json:"clipped"`
	FuzzyHits   uint64 `json:"fuzzy_hits"`
	SynonymHits uint64 `json:"synonym_hits"`
}

func (r *Registry) rewriteSnapshot() *RewriteMetricsSnapshot {
	return &RewriteMetricsSnapshot{
		Queries:     r.RewriteQueries.Load(),
		Variants:    r.RewriteVariants.Load(),
		Probes:      r.RewriteProbes.Load(),
		Clipped:     r.RewriteClipped.Load(),
		FuzzyHits:   r.RewriteFuzzyHits.Load(),
		SynonymHits: r.RewriteSynonymHits.Load(),
	}
}

// rewriteStatsJSON is the per-response form of adindex.RewriteStats.
type rewriteStatsJSON struct {
	Variants    int  `json:"variants"`
	Probes      int  `json:"probes"`
	Clipped     bool `json:"clipped,omitempty"`
	FuzzyHits   int  `json:"fuzzy_hits,omitempty"`
	SynonymHits int  `json:"synonym_hits,omitempty"`
}

func newRewriteStatsJSON(st adindex.RewriteStats) *rewriteStatsJSON {
	return &rewriteStatsJSON{
		Variants:    st.Variants,
		Probes:      st.Probes,
		Clipped:     st.Clipped,
		FuzzyHits:   st.FuzzyHits,
		SynonymHits: st.SynonymHits,
	}
}

// DurabilitySnapshot is the durability section of /metrics.
type DurabilitySnapshot struct {
	// Recovering is true while startup recovery has not installed the
	// index yet (all other fields are empty in that state).
	Recovering bool `json:"recovering,omitempty"`
	// Recovery is the startup recovery report (what was loaded, what was
	// salvaged, what was dropped).
	Recovery *durable.RecoveryReport `json:"recovery,omitempty"`
	// Store holds live persistence counters.
	Store *durable.StoreStats `json:"store,omitempty"`
	// PersistErr is the first persistence failure, if any; non-empty
	// means the in-memory index is ahead of disk.
	PersistErr string `json:"persist_err,omitempty"`
}

// Snapshot captures all counters (the cache section and the epoch are
// filled in by the server, which owns those components).
func (r *Registry) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Requests.Broad = r.ReqBroad.Load()
	s.Requests.Exact = r.ReqExact.Load()
	s.Requests.Phrase = r.ReqPhrase.Load()
	s.Requests.Bad = r.BadRequests.Load()
	s.Shed = r.Shed.Load()
	s.Timeouts = r.Timeouts.Load()
	s.InFlight = r.InFlight.Load()
	s.Mutations = r.Mutations.Load()
	s.Degraded = r.Degraded.Load()
	s.BackendErrors = r.BackendErrors.Load()
	s.NotReady = r.NotReady.Load()
	s.Overload.BudgetTruncated = r.BudgetTruncated.Load()
	s.Overload.Panics = r.Panics.Load()
	s.Overload.QuarantineRejects = r.QuarantineRejects.Load()
	s.Latency = latencySnapshot(r.Latency)
	s.Memory = readMemory()
	return s
}

// Metrics: a stdlib-only registry of atomic counters and one fixed-bucket
// histogram type (latency and modeled cost differ only in their bucket
// table) for the serving layer.
package server

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"adindex"
	"adindex/internal/durable"
	"adindex/internal/shard"
)

// Histogram is a fixed-bucket concurrent histogram over a static table of
// bucket upper bounds. All methods are safe for concurrent use; Observe
// is a binary search over the table plus three atomic adds. Create one
// with NewLatencyHistogram or NewCostHistogram.
type Histogram struct {
	// bounds[i] is the exclusive upper bound of bucket i; samples at or
	// past the last bound land in one overflow bucket, which reports the
	// last bound. The table is shared by every histogram of its kind and
	// never written.
	bounds  []float64
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

// costBounds is the modeled-cost bucket table, in cost-model units
// (scan-byte equivalents): 48 power-of-two edges, bucket i covering
// [2^i, 2^(i+1)) with bucket 0 covering [0, 2), which spans any realistic
// per-query cost.
var costBounds = func() []float64 {
	b := make([]float64, 48)
	for i := range b {
		b[i] = math.Ldexp(1, i+1)
	}
	return b
}()

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// NewLatencyHistogram returns an empty histogram of nanosecond samples
// over the latency table.
func NewLatencyHistogram() *Histogram { return newHistogram(latencyBounds) }

// NewCostHistogram returns an empty histogram of modeled-cost samples
// over the power-of-two table.
func NewCostHistogram() *Histogram { return newHistogram(costBounds) }

// Observe records one sample (negative samples count as zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	// The first bound above v: a sample equal to a bound belongs to the
	// next bucket.
	i, onEdge := slices.BinarySearch(h.bounds, v)
	if onEdge {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v + 0.5))
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// upper returns the bound bucket i reports.
func (h *Histogram) upper(i int) float64 {
	if i >= len(h.bounds) {
		i = len(h.bounds) - 1
	}
	return h.bounds[i]
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
			return h.upper(i)
		}
	}
	return h.upper(len(h.buckets) - 1)
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
			s.BucketUS = append(s.BucketUS, BucketSnapshot{UpperUS: us(h.upper(i)), Count: n})
		}
	}
	return s
}

// Registry aggregates the serving-layer metrics. All fields are updated
// with atomic operations. Create with NewRegistry.
type Registry struct {
	// Per-match-type request counts (accepted requests only).
	ReqBroad, ReqExact, ReqPhrase atomic.Uint64
	// BadRequests counts 4xx rejections (missing q, bad type).
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
	// BudgetTruncated counts queries whose cost/deadline budget exhausted
	// mid-match (answered with a flagged verified subset); Cutoffs counts
	// queries whose words were clipped at MaxQueryWords.
	BudgetTruncated, Cutoffs atomic.Uint64
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
	// Cost is the per-query modeled-cost histogram (cost-model units of
	// the index walk), populated when the index adapts. Layout drift
	// shows up here long before it is visible in wall-clock Latency.
	Cost *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{Latency: NewLatencyHistogram(), Cost: NewCostHistogram()}
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
		Entries       int    `json:"entries"`
		// Probation is how many of those entries sit in the probation
		// segment: not hit since they were stored or demoted.
		Probation int `json:"probation"`
		// Bytes is the key and body bytes the live entries hold.
		Bytes int64 `json:"bytes"`
	} `json:"cache"`
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`
	InFlight int64  `json:"in_flight"`
	// Overload is the overload-armor section: shedding state and typed
	// shed counts from the limiter, budget truncations and word-cutoff
	// counts from the match path, and quarantine/panic containment
	// activity.
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
	// Elastic is present when a Rebalancer is attached: routing epoch,
	// in-flight migration phase, completed/aborted handoffs, and
	// per-shard placement signals (slots, ads, matches served).
	Elastic *shard.RebalanceStatus `json:"elastic,omitempty"`
	// Adapt is present when the index adapts (Index.AdaptEnabled):
	// continuous-adaptation rounds/moves/modeled-cost trend, plus the
	// per-query modeled-cost distribution.
	Adapt *AdaptMetricsSnapshot `json:"adapt,omitempty"`
}

// IndexSnapshot is the write-path section of /metrics: overlay folds (each
// a rebuild of the whole base, on the goroutine of the write that filled
// the overlay) since the index was opened, WAL replay included, and the
// seconds they took; and how long the last build of a base took, the
// start's or the latest fold's.
type IndexSnapshot struct {
	Folds            uint64  `json:"folds"`
	FoldSecondsTotal float64 `json:"fold_seconds_total"`
	BuildSeconds     float64 `json:"build_seconds"`
	// ObservedQueries is how many distinct query word sets the workload
	// sampler holds (Index.ObservedQueries).
	ObservedQueries int `json:"observed_queries"`
}

// MemorySnapshot is the memory section of /metrics, read from
// runtime/metrics.
type MemorySnapshot struct {
	HeapLiveBytes uint64 `json:"heap_live_bytes"` // /gc/heap/live:bytes
	HeapGoalBytes uint64 `json:"heap_goal_bytes"` // /gc/heap/goal:bytes
}

// readMemory reads the memory section.
func readMemory() MemorySnapshot {
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(samples)
	var m MemorySnapshot
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.HeapLiveBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.HeapGoalBytes = samples[1].Value.Uint64()
	}
	return m
}

// OverloadSnapshot is the overload-armor section of /metrics.
type OverloadSnapshot struct {
	// Shedding reports whether CoDel queue-delay shedding is active now.
	Shedding bool `json:"shedding"`
	// ShedOverload / ShedQueueFull split the limiter's rejections by
	// cause: standing-queue delay vs the hard queue bound.
	ShedOverload  uint64 `json:"shed_overload"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	// BudgetTruncated / Cutoffs count flagged-partial answers.
	BudgetTruncated uint64 `json:"budget_truncated"`
	Cutoffs         uint64 `json:"cutoffs"`
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
	s.Overload.Cutoffs = r.Cutoffs.Load()
	s.Overload.Panics = r.Panics.Load()
	s.Overload.QuarantineRejects = r.QuarantineRejects.Load()
	s.Latency = latencySnapshot(r.Latency)
	s.Memory = readMemory()
	return s
}

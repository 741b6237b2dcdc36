package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"adindex"
)

// bucketOf reports which bucket of a fresh histogram over bounds a sample
// lands in.
func bucketOf(bounds []float64, v float64) int {
	h := newHistogram(bounds)
	h.Observe(v)
	for i := range h.buckets {
		if h.buckets[i].Load() == 1 {
			return i
		}
	}
	return -1
}

func TestHistogramBuckets(t *testing.T) {
	numBuckets := len(latencyBounds) + 1
	bucketIndex := func(d time.Duration) int { return bucketOf(latencyBounds, float64(d)) }
	bucketUpper := func(i int) time.Duration { return time.Duration(latencyBounds[i]) }
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // clamped
		{99 * time.Microsecond, 0},
		{100 * time.Microsecond, 1},
		{4999 * time.Microsecond, 49}, // last fine bucket
		{5 * time.Millisecond, 50},    // first coarse bucket
		{9 * time.Millisecond, 50},
		{10 * time.Millisecond, 51},
		{304 * time.Millisecond, numBuckets - 2}, // last coarse bucket
		{time.Hour, numBuckets - 1},              // overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Upper bounds are consistent with indexing: a duration just below a
	// bucket's upper bound maps into that bucket.
	for i := 0; i < numBuckets-1; i++ {
		if got := bucketIndex(bucketUpper(i) - time.Nanosecond); got != i {
			t.Errorf("bucketIndex(upper(%d)-1ns) = %d", i, got)
		}
	}
}

// TestCostBoundsPowerOfTwoEdges: bucket i of the cost table covers
// [2^i, 2^(i+1)), bucket 0 also takes [0, 2), and quantiles report the
// power-of-two upper edge (TestAdaptUnderDrift compares those edges).
func TestCostBoundsPowerOfTwoEdges(t *testing.T) {
	for _, c := range []struct {
		cost float64
		want int
	}{{-3, 0}, {0, 0}, {1.9, 0}, {2, 1}, {3.99, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1e30, 48}} {
		if got := bucketOf(costBounds, c.cost); got != c.want {
			t.Errorf("cost %v in bucket %d, want %d", c.cost, got, c.want)
		}
	}
	h := NewCostHistogram()
	h.Observe(1500)
	h.Observe(1e30) // overflow reports the largest bound
	if p50, max := h.Quantile(0.5), h.Quantile(1); p50 != 2048 || max != costBounds[len(costBounds)-1] {
		t.Errorf("p50 = %v, max = %v", p50, max)
	}
	resetHistogram(h)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset left samples behind")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 90 fast samples at ~1ms, 10 slow at ~50ms.
	for i := 0; i < 90; i++ {
		h.Observe(float64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(float64(50 * time.Millisecond))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := time.Duration(h.Quantile(0.5)); p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms bucket bound", p50)
	}
	// p95 and p99 land in the slow mode.
	if p95 := time.Duration(h.Quantile(0.95)); p95 < 45*time.Millisecond {
		t.Errorf("p95 = %v, want ≥ 45ms", p95)
	}
	if p99 := time.Duration(h.Quantile(0.99)); p99 < 45*time.Millisecond {
		t.Errorf("p99 = %v, want ≥ 45ms", p99)
	}
	mean := time.Duration(h.Mean())
	if mean < 5*time.Millisecond || mean > 7*time.Millisecond {
		t.Errorf("mean = %v, want ~5.9ms", mean)
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.ReqBroad.Add(3)
	r.Shed.Add(1)
	r.Latency.Observe(float64(2 * time.Millisecond))
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["shed"].(float64) != 1 {
		t.Errorf("shed = %v", back["shed"])
	}
	reqs := back["requests"].(map[string]any)
	if reqs["broad"].(float64) != 3 {
		t.Errorf("requests.broad = %v", reqs["broad"])
	}
	lat := back["latency"].(map[string]any)
	if lat["count"].(float64) != 1 {
		t.Errorf("latency.count = %v", lat["count"])
	}

	// The cache section is the server's: cache.bytes is the key and body
	// bytes of the live entries, here the one reply a search just stored.
	s := New(adindex.Build(testCatalog(), adindex.Options{}), Config{})
	reply := serve(t, s, "GET", searchTarget("used books", "broad"), "")
	body := reply[bytes.Index(reply, []byte(`"ads":`))+len(`"ads":`) : bytes.Index(reply, []byte(`,"took_us"`))]
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &back); err != nil {
		t.Fatal(err)
	}
	cache := back["cache"].(map[string]any)
	if want := len("b\x00books\x1fused") + len(body); cache["entries"].(float64) != 1 || cache["bytes"].(float64) != float64(want) {
		t.Errorf("cache = %v, want 1 entry of %d bytes", cache, want)
	}

	// The index section counts overlay folds where they happen: here the
	// third insert finds a two-ad overlay full.
	s = New(adindex.Build(testCatalog(), adindex.Options{MaxDeltaAds: 2}), Config{})
	var snap MetricsSnapshot
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Index == nil || snap.Index.Folds != 0 || snap.Index.FoldSecondsTotal != 0 || snap.Index.BuildSeconds <= 0 {
		t.Fatalf("index section before any write = %+v, want no fold and the start's build time", snap.Index)
	}

	for id := 901; id <= 903; id++ {
		serve(t, s, "POST", "/insert", fmt.Sprintf(`{"id":%d,"phrase":"fold filler %d"}`, id, id))
	}
	metrics := serve(t, s, "GET", "/metrics", "")
	if err := json.Unmarshal(metrics, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Index.Folds != 1 || snap.Index.FoldSecondsTotal <= 0 {
		t.Errorf("index section after overflowing the overlay = %+v, want one timed fold", snap.Index)
	}
	if !bytes.Contains(metrics, []byte(`"index":{"folds":1,"fold_seconds_total":`)) || !bytes.Contains(metrics, []byte(`,"build_seconds":`)) {
		t.Errorf("/metrics does not carry index.folds / index.fold_seconds_total / index.build_seconds: %s", metrics)
	}
	// The one fold is the last build of a base.
	if snap.Index.BuildSeconds != snap.Index.FoldSecondsTotal {
		t.Errorf("index.build_seconds = %v after one fold of %v s", snap.Index.BuildSeconds, snap.Index.FoldSecondsTotal)
	}
}

// resetHistogram zeroes h between the quiescent phases of a test (it is
// not atomic with respect to concurrent Observe calls).
func resetHistogram(h *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

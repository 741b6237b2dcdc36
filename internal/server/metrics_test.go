package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"adindex"
)

// bucketOf reports which bucket of a fresh histogram a sample lands in.
func bucketOf(v float64) int {
	h := NewLatencyHistogram()
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
	bucketIndex := func(d time.Duration) int { return bucketOf(float64(d)) }
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
	// The memory section is the process's heap as the last collection
	// left it.
	runtime.GC()
	var mem MetricsSnapshot
	if b, err = json.Marshal(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &mem); err != nil {
		t.Fatal(err)
	}
	if m := mem.Memory; m.HeapLiveBytes == 0 || m.HeapGoalBytes < m.HeapLiveBytes ||
		!bytes.Contains(b, []byte(`"memory":{"heap_live_bytes":`)) || !bytes.Contains(b, []byte(`,"heap_goal_bytes":`)) {
		t.Errorf("memory section = %+v in %s, want a live heap under its goal", m, b)
	}
	// The peak resident set is the kernel's, where the kernel tells it.
	_, statusErr := os.Stat("/proc/self/status")
	if m := mem.Memory; (statusErr == nil) != (m.PeakRSSBytes > m.HeapLiveBytes) ||
		!bytes.Contains(b, []byte(`,"peak_rss_bytes":`)) {
		t.Errorf("memory section = %+v in %s, want VmHWM above the live heap (/proc/self/status: %v)", m, b, statusErr)
	}
	// The collector's CPU time only grows, and the collection above spent
	// some.
	if m := mem.Memory; m.GCCPUSeconds <= 0 || !bytes.Contains(b, []byte(`,"gc_cpu_seconds":`)) {
		t.Errorf("memory section = %+v in %s, want the collector's CPU seconds", m, b)
	}

	// The cache section is the server's: cache.bytes is what the live
	// entries own — here the ghost a search just left, its first sighting:
	// its key — and cache.shared_ads / shared_bytes are the distinct ads
	// stored replies reference, each counted once: none yet.
	s := New(adindex.Build(testCatalog(), adindex.Options{}), Config{})
	reply := serve(t, s, "GET", searchTarget("used books", "broad"), "")
	body := reply[bytes.Index(reply, []byte(`"ads":`))+len(`"ads":`) : bytes.Index(reply, []byte(`,"took_us"`))]
	var ads []adindex.Ad
	if err := json.Unmarshal(body, &ads); err != nil || len(ads) < 2 {
		t.Fatalf("reply %s: %d ads, %v", reply, len(ads), err)
	}
	metricsBody := serve(t, s, "GET", "/metrics", "")
	if err := json.Unmarshal(metricsBody, &back); err != nil {
		t.Fatal(err)
	}
	// memory.offheap_bytes counts the mapped regions of the live bases,
	// the served index's among them; off Linux nothing is mapped.
	offHeap := back["memory"].(map[string]any)["offheap_bytes"]
	if mapped := runtime.GOOS == "linux"; !bytes.Contains(metricsBody, []byte(`,"offheap_bytes":`)) ||
		mapped != (offHeap.(float64) > 0) {
		t.Errorf("memory.offheap_bytes = %v on %s, want it above 0 exactly where regions are mapped", offHeap, runtime.GOOS)
	}
	cache := back["cache"].(map[string]any)
	key := len("b\x00books\x1fused")
	if cache["entries"].(float64) != 1 || cache["bytes"].(float64) != float64(key) {
		t.Errorf("cache = %v, want 1 entry of %d bytes", cache, key)
	}
	if cache["shared_ads"].(float64) != 0 || cache["shared_bytes"].(float64) != 0 {
		t.Errorf("cache = %v, want no shared ads before a repeat", cache)
	}
	// A first sighting waits in probation as a ghost until it is asked
	// again; the sampler holds the one query's word set.
	if cache["probation"].(float64) != 1 || cache["ghosts"].(float64) != 1 {
		t.Errorf("cache.probation = %v, cache.ghosts = %v before the repeat, want 1 and 1", cache["probation"], cache["ghosts"])
	}
	if got := back["index"].(map[string]any)["observed_queries"]; got != float64(1) {
		t.Errorf("index.observed_queries = %v, want 1", got)
	}
	// index.observed_bytes is the sampler's memory as the index counts it:
	// the slots of the one shard that holds the set, its table and the key.
	observedBytes := back["index"].(map[string]any)["observed_bytes"]
	if want := s.local().ObservedBytes(); want == 0 || observedBytes != float64(want) {
		t.Errorf("index.observed_bytes = %v, want the index's own %d", observedBytes, want)
	}
	// index.bytes is the base's memory by column, as the index reports it.
	var ixSnap MetricsSnapshot
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &ixSnap); err != nil {
		t.Fatal(err)
	}
	if got, want := ixSnap.Index.Bytes, s.local().IndexBytes(); got != want || got.Records == 0 || got.WordIDs == 0 ||
		got.Arena == 0 || got.Signatures == 0 || got.ProbeTable == 0 || got.Vocabulary == 0 {
		t.Errorf("index.bytes = %+v, want the index's own %+v with every column present", got, want)
	}
	for _, column := range []string{"records", "word_ids", "arena", "signatures", "probe_table", "locators", "vocabulary"} {
		if _, ok := back["index"].(map[string]any)["bytes"].(map[string]any)[column]; !ok {
			t.Errorf("index.bytes has no %q", column)
		}
	}
	serve(t, s, "GET", searchTarget("books used", "broad"), "") // the second sighting stores it
	serve(t, s, "GET", searchTarget("used books", "broad"), "")
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &back); err != nil {
		t.Fatal(err)
	}
	if cache := back["cache"].(map[string]any); cache["probation"].(float64) != 0 || cache["ghosts"].(float64) != 0 ||
		cache["entries"].(float64) != 1 || cache["hits"].(float64) != 1 {
		t.Errorf("cache = %v after the repeat, want its one entry hit and out of probation", cache)
	}
	// The second sighting interned the reply's ads: the entry owns its key
	// and a 4-byte reference per ad, the table the ads, which are the body
	// without its brackets and commas.
	if cache, want := back["cache"].(map[string]any), len(body)-2-(len(ads)-1); cache["bytes"].(float64) != float64(key+4*len(ads)) ||
		cache["shared_ads"].(float64) != float64(len(ads)) || cache["shared_bytes"].(float64) != float64(want) {
		t.Errorf("cache = %v after the repeat, want %d bytes of entry and %d shared ads of %d bytes", cache, key+4*len(ads), len(ads), want)
	}
	if got := back["index"].(map[string]any)["observed_queries"]; got != float64(1) {
		t.Errorf("index.observed_queries = %v after a reordered repeat, want 1", got)
	}
	if got := back["index"].(map[string]any)["observed_bytes"]; got != observedBytes {
		t.Errorf("index.observed_bytes = %v after a reordered repeat, want %v", got, observedBytes)
	}
	if got := back["index"].(map[string]any)["remaps"]; got != float64(0) {
		t.Errorf("index.remaps = %v before any re-mapping, want 0", got)
	}
	// Ghosts are probation entries, and probation's are entries; a server
	// never started was never ready, so its start's peak is not read.
	var full MetricsSnapshot
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &full); err != nil {
		t.Fatal(err)
	}
	if c := full.Cache; c.Ghosts > c.Probation || c.Probation > c.Entries {
		t.Errorf("cache = %+v, want ghosts <= probation <= entries", c)
	}
	if m := full.Memory; m.ReadyPeakRSSBytes != 0 || m.ReadyPeakRSSBytes > m.PeakRSSBytes {
		t.Errorf("memory = %+v of a server never started, want no ready peak", m)
	}
	// A started server read VmHWM when it turned ready, where the kernel
	// tells it, and the peak since can only be higher.
	_, _, base := startTestServer(t, Config{})
	var started MetricsSnapshot
	getJSON(t, base+"/metrics", &started)
	if m := started.Memory; (statusErr == nil) != (m.ReadyPeakRSSBytes > 0) || m.ReadyPeakRSSBytes > m.PeakRSSBytes {
		t.Errorf("memory = %+v of a ready server, want 0 < ready_peak_rss_bytes <= peak_rss_bytes (/proc/self/status: %v)", m, statusErr)
	}
	serve(t, s, "POST", "/optimize", "")
	if err := json.Unmarshal(serve(t, s, "GET", "/metrics", ""), &back); err != nil {
		t.Fatal(err)
	}
	if got := back["index"].(map[string]any)["remaps"]; got != float64(1) {
		t.Errorf("index.remaps = %v after one /optimize, want 1", got)
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

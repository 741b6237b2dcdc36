package core

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"adindex/internal/corpus"
)

// liveHeap returns the live heap after two collections: the second one
// finishes sweeping what the first found dead.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// buildUnreachable builds an index over n generated ads, leaving nothing
// of the input reachable.
func buildUnreachable(n int) *Index {
	return New(corpus.Generate(corpus.GenOptions{NumAds: n, Seed: 1}).Ads, Options{})
}

// TestIndexLiveBytesPerAd: a built index holds no Go pointer per ad and
// none of its input, so its live heap is its columns, word IDs, arena,
// probe table, locators and vocabulary: at most 200 bytes per ad of the
// generated corpus.
func TestIndexLiveBytesPerAd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the heap")
	}
	const n = 100_000
	before := liveHeap()
	ix := buildUnreachable(n)
	after := liveHeap()
	perAd := float64(after-before) / n
	total := ix.Stats().Bytes.Total()
	t.Logf("live heap %.1f B/ad; the index accounts for %.1f B/ad (%+v)", perAd, float64(total)/n, ix.Stats().Bytes)
	if perAd > 200 {
		t.Errorf("index holds %.1f live bytes per ad, want <= 200", perAd)
	}
	runtime.KeepAlive(ix)
}

// TestFrozenBaseHeapBytesPerAd: a frozen index keeps its record columns,
// word IDs, nodes and probe table in its region, so its live heap is the
// text arena, the vocabulary and the mapping: at most 40 bytes per ad of
// the generated corpus. It holds the memory, column by column, a heap
// build of the same ads holds.
func TestFrozenBaseHeapBytesPerAd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the heap")
	}
	const n = 100_000
	heapBytes := buildUnreachable(n).Stats().Bytes
	before := liveHeap()
	ix, err := NewFrozen(corpus.Generate(corpus.GenOptions{NumAds: n, Seed: 1}).Ads, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	if ix.MappedBytes() == 0 {
		t.Skip("index regions are heap memory on this platform")
	}
	perAd := float64(after-before) / n
	t.Logf("live heap %.1f B/ad; the region maps %d bytes, %.1f B/ad", perAd, ix.MappedBytes(), float64(ix.MappedBytes())/n)
	if perAd > 40 {
		t.Errorf("frozen index holds %.1f live heap bytes per ad, want <= 40", perAd)
	}
	if got := ix.Stats().Bytes; got != heapBytes {
		t.Errorf("frozen index holds %+v, a heap build %+v", got, heapBytes)
	}
	runtime.KeepAlive(ix)
}

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

package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"adindex/internal/corpus"
)

// routedFixture is an elastic deployment served over TCP plus a routed
// client wired to its live route.
type routedFixture struct {
	ec *ElasticCluster
	es *ElasticServing
	nc *NetClient
}

func newRoutedFixture(t *testing.T, ads []corpus.Ad, numShards int, opts Options) *routedFixture {
	t.Helper()
	ec, err := NewElastic(ads, numShards, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(es.Close)
	nc, err := DialRoute(func() (*Route, error) {
		return ec.RouteOver(es.Addrs()), nil
	}, "", opts)
	if err != nil {
		t.Fatalf("DialRoute: %v", err)
	}
	t.Cleanup(nc.Close)
	return &routedFixture{ec: ec, es: es, nc: nc}
}

func TestRoutedClientQueries(t *testing.T) {
	ads := elasticAds(80)
	f := newRoutedFixture(t, ads, 2, Options{})
	if f.nc.Epoch() != 1 || f.nc.NumShards() != 2 {
		t.Fatalf("routed client epoch=%d shards=%d", f.nc.Epoch(), f.nc.NumShards())
	}
	for _, ad := range ads[:10] {
		ids, err := f.nc.Query(ad.Phrase)
		if err != nil {
			t.Fatalf("Query(%q): %v", ad.Phrase, err)
		}
		if len(ids) != 1 || ids[0] != ad.ID {
			t.Fatalf("Query(%q) = %v, want [%d]", ad.Phrase, ids, ad.ID)
		}
	}
	if st := f.nc.Stats(); st.RouteRefreshes != 1 || st.StaleRetries != 0 {
		t.Fatalf("stats after clean queries: %+v", st)
	}
}

// The satellite regression: a client holding the pre-split route keeps
// querying through a clean cutover and never hard-fails — it absorbs
// the stale-epoch rejection with one transparent refresh-and-retry,
// burning no retry or breaker budget.
func TestRoutedClientSurvivesCleanCutover(t *testing.T) {
	ads := elasticAds(120)
	f := newRoutedFixture(t, ads, 2, Options{})

	// Warm queries at epoch 1.
	if _, err := f.nc.Query(ads[0].Phrase); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	// Continuous query load through the whole split. Every query must
	// succeed with the exact single-match answer — degraded or failed
	// results are regressions.
	var stop atomic.Bool
	var hardFails atomic.Uint64
	var wrong atomic.Uint64
	var queries atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ad := ads[(w*31+i)%len(ads)]
				ids, err := f.nc.Query(ad.Phrase)
				queries.Add(1)
				if err != nil {
					hardFails.Add(1)
					continue
				}
				if len(ids) != 1 || ids[0] != ad.ID {
					wrong.Add(1)
				}
			}
		}(w)
	}

	if _, err := f.ec.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	// Post-cutover queries from the (now stale) client.
	for i := 0; i < 50; i++ {
		ad := ads[i%len(ads)]
		ids, err := f.nc.Query(ad.Phrase)
		if err != nil {
			t.Fatalf("post-cutover Query(%q): %v", ad.Phrase, err)
		}
		if len(ids) != 1 || ids[0] != ad.ID {
			t.Fatalf("post-cutover Query(%q) = %v", ad.Phrase, ids)
		}
	}
	stop.Store(true)
	wg.Wait()

	if hf := hardFails.Load(); hf != 0 {
		t.Fatalf("%d/%d queries hard-failed across the cutover", hf, queries.Load())
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d/%d queries returned wrong results across the cutover", w, queries.Load())
	}
	st := f.nc.Stats()
	if st.StaleRetries == 0 {
		t.Fatalf("cutover was absorbed without any stale retry — epoch check not exercised: %+v", st)
	}
	// The stale rejections must not have burned fault budget: the
	// backends were alive the whole time.
	if st.Retries != 0 || st.BreakerOpens != 0 || st.FastFails != 0 {
		t.Fatalf("stale handling burned fault budget: %+v", st)
	}
	if f.nc.Epoch() != 2 || f.nc.NumShards() != 3 {
		t.Fatalf("client did not converge: epoch=%d shards=%d", f.nc.Epoch(), f.nc.NumShards())
	}
}

// A route source that keeps serving the retired epoch bounds the
// refresh loop into a typed failure instead of a livelock.
func TestRoutedClientBoundedRefresh(t *testing.T) {
	ads := elasticAds(60)
	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer es.Close()

	stale := ec.RouteOver(es.Addrs()) // frozen pre-split route
	nc, err := DialRoute(func() (*Route, error) { return stale, nil }, "", Options{})
	if err != nil {
		t.Fatalf("DialRoute: %v", err)
	}
	defer nc.Close()

	if _, err := ec.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if _, err := nc.Query(ads[0].Phrase); err == nil {
		t.Fatalf("query against permanently stale route source succeeded")
	}
	if st := nc.Stats(); st.StaleRetries != uint64(maxEpochRefreshes) {
		t.Fatalf("stale retries = %d, want bounded at %d", st.StaleRetries, maxEpochRefreshes)
	}
}

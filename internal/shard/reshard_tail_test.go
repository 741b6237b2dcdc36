//go:build !race

package shard

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/workload"
)

// TestReshardTailLatency is the resharding acceptance bar: a loopback
// elastic deployment (ElasticCluster positions on epoch-checked TCP
// servers, queried through the routed client, as `adserve -elastic`
// wires them) takes closed-loop query load while the cluster splits,
// migrates and merges underneath it. No query may fail, and the p99 of
// the queries that started inside a handoff (snapshot stream, staging
// load, catch-up, cutover, client refresh-and-retry, drain) must stay
// within 2x the p99 of the steady windows measured just before each
// handoff.
//
// This is the test that holds handoffBatch and handoffPace: with pace()
// stubbed out the handoff monopolizes a core and the during-p99 rises
// several-fold. Wall-clock tails on a shared box are noisy, so the bar
// is best of three attempts with an absolute floor under the limit; a
// hard query failure fails at once. Not run under the race detector,
// which inflates the handoff's compute chunks but not the parked time
// between them.
func TestReshardTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-ad cluster and serves ~10 s of load per attempt")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 1607})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 5000, Seed: 1608})
	var queries []string
	for _, q := range wl.Stream(20000, 1609) {
		queries = append(queries, strings.Join(q.Words, " "))
	}

	const attempts = 3
	for i := 1; ; i++ {
		before, during := reshardUnderLoad(t, c.Ads, queries)
		// The floor is 2x the steady p99 of the box the constants were
		// chosen on: it only lifts the limit on a faster one, where timer
		// granularity rather than the handoff sets the tail.
		limit := max(2*before, 400*time.Microsecond)
		t.Logf("attempt %d: p99 before %v, during %v (%.2fx, limit %v)",
			i, before, during, float64(during)/float64(before), limit)
		if during <= limit {
			return
		}
		if i == attempts {
			t.Fatalf("p99 during handoffs %v exceeds %v (2x the steady p99 %v) in all %d attempts",
				during, limit, before, attempts)
		}
	}
}

// reshardUnderLoad serves one split → migrate → merge sequence under
// closed-loop load and returns the p99 latency of the queries issued in
// the steady windows (half a second before each handoff, so the
// reference sees the same box as the handoff it is compared with) and
// inside the handoffs. Any query error is fatal.
func reshardUnderLoad(t *testing.T, ads []corpus.Ad, queries []string) (before, during time.Duration) {
	ec, err := NewElastic(ads, 2, ElasticOptions{MaxShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	nc, err := DialRoute(func() (*Route, error) { return ec.RouteOver(es.Addrs()), nil },
		adSrv.Addr(), Options{Conn: multiserver.ConnOpts{Timeout: 2 * time.Second, MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	type sample struct {
		at  time.Time
		dur time.Duration
	}
	var (
		mu       sync.Mutex
		samples  []sample
		failures []error
		next     atomic.Uint64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var errs []error
			for !stop.Load() {
				q := queries[next.Add(1)%uint64(len(queries))]
				t0 := time.Now()
				if _, err := nc.Query(q); err != nil {
					errs = append(errs, err)
				}
				local = append(local, sample{at: t0, dur: time.Since(t0)})
			}
			mu.Lock()
			samples = append(samples, local...)
			failures = append(failures, errs...)
			mu.Unlock()
		}()
	}

	type window struct{ start, end time.Time }
	var steady, handoffs []window
	time.Sleep(300 * time.Millisecond) // warm sockets and caches
	for _, op := range []struct {
		kind string
		run  func() error
	}{
		{"split 0->2", func() error { _, err := ec.Split(0); return err }},
		{"migrate 1->2", func() error { return ec.Migrate(1, 2) }},
		{"merge 2->0", func() error { return ec.Merge(2, 0) }},
	} {
		s := window{start: time.Now()}
		time.Sleep(500 * time.Millisecond)
		s.end = time.Now()
		steady = append(steady, s)

		w := window{start: s.end}
		err := op.run()
		w.end = time.Now()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("%s: %v", op.kind, err)
		}
		t.Logf("%s: %v", op.kind, w.end.Sub(w.start).Round(time.Millisecond))
		handoffs = append(handoffs, w)
		time.Sleep(200 * time.Millisecond) // settle before the next steady window
	}
	stop.Store(true)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d of %d queries failed across the topology changes (first: %v)",
			len(failures), len(samples), failures[0])
	}
	if st := nc.Stats(); st.RouteRefreshes < 1+3 { // the dial, then one per cutover
		t.Fatalf("client fetched its route %d times across 3 epoch bumps: load did not span the handoffs", st.RouteRefreshes)
	}
	p99 := func(wins ...window) time.Duration {
		var durs []time.Duration
		for _, s := range samples {
			for _, w := range wins {
				if !s.at.Before(w.start) && s.at.Before(w.end) {
					durs = append(durs, s.dur)
				}
			}
		}
		if len(durs) < 1000 {
			t.Fatalf("only %d samples in a measured window", len(durs))
		}
		slices.Sort(durs)
		return durs[len(durs)*99/100]
	}
	return p99(steady...), p99(handoffs...)
}

// TestInsertNotStalledByHandoff holds the handoff to short critical
// sections from the writer's side: an in-process writer inserting
// through a whole live split never waits long for the cluster lock. The
// regression it guards is a handoff phase that parks while it holds the
// read lock (a paced whole-shard capture would, ~80 ms per 10k-ad shard
// at these pacing constants): the writer queues behind the held lock
// and, because a waiting writer blocks new readers, so does every query
// behind the writer.
func TestInsertNotStalledByHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("splits a 20k-ad cluster at the shipped handoff pace (~1.5 s)")
	}
	c := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 1610})
	ec, err := NewElastic(c.Ads, 2, ElasticOptions{MaxShards: 4, MaxDeltaRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop     atomic.Bool
		done     = make(chan struct{})
		inserts  int
		worst    time.Duration
		worstAt  string
		fresh    = uint64(1 << 40)
		newWords = []string{"zzhandoff", "zzwriter"}
	)
	go func() {
		defer close(done)
		for !stop.Load() {
			fresh++
			ad := corpus.Ad{ID: fresh, Phrase: strings.Join(newWords, " "), Words: newWords}
			phase := ec.Status().Phase
			t0 := time.Now()
			ec.Insert(ad)
			if d := time.Since(t0); d > worst {
				worst, worstAt = d, phase
			}
			inserts++
			time.Sleep(500 * time.Microsecond)
		}
	}()
	_, err = ec.Split(0)
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d inserts through the split, slowest %v (phase %q)", inserts, worst, worstAt)
	if inserts < 100 {
		t.Fatalf("only %d inserts overlapped the split", inserts)
	}
	if limit := 20 * time.Millisecond; worst > limit {
		t.Fatalf("an Insert waited %v (phase %q) for the cluster lock during a handoff, limit %v", worst, worstAt, limit)
	}
}

package adindex

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

func observeQuery(ix *Index, q *workload.Query) {
	ix.BroadMatch(strings.Join(q.Words, " "))
}

// adaptTestIndex builds a durable index in the default placement with live
// traffic observed: a tick on it has something to gain.
func adaptTestIndex(t *testing.T, adsSeed, wlSeed int64) (*Index, *workload.Workload) {
	t.Helper()
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: adsSeed})
	ix, _, err := OpenDurable(t.TempDir(), Options{}, DurableConfig{Bootstrap: c.Ads})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 500, Seed: wlSeed})
	for i := range wl.Queries {
		for f := 0; f < wl.Queries[i].Freq%4+1; f++ {
			observeQuery(ix, &wl.Queries[i])
		}
	}
	return ix, wl
}

// tickState is what a tick that installs nothing must leave as it was.
type tickState struct {
	snap      *snapshot
	epoch     uint64
	remaps    uint64
	snapshots uint64
	dir       []string
}

func tickStateOf(t *testing.T, ix *Index) tickState {
	t.Helper()
	entries, err := os.ReadDir(ix.store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var dir []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		dir = append(dir, fmt.Sprintf("%s %d %v", e.Name(), info.Size(), info.ModTime()))
	}
	return tickState{ix.snap.Load(), ix.Epoch(), ix.Remaps(), durableSnapshots(t, ix), dir}
}

// tick runs one synchronous tick and reports whether it installed.
func tick(t *testing.T, ix *Index) bool {
	t.Helper()
	installed, err := ix.adaptTick()
	if err != nil {
		t.Fatal(err)
	}
	return installed
}

// TestAdaptTickSkipsWithoutTraffic: a tick with no query observed since the
// previous tick runs nothing, even where a plan would gain; the next query
// lets the following tick install.
func TestAdaptTickSkipsWithoutTraffic(t *testing.T) {
	ix, wl := adaptTestIndex(t, 81, 82)
	ix.adaptSeen.Store(ix.observed.Occurrences()) // as if a tick just saw this traffic
	before := tickStateOf(t, ix)
	if tick(t, ix) {
		t.Fatal("a tick with no new traffic installed a mapping")
	}
	if after := tickStateOf(t, ix); !reflect.DeepEqual(after, before) {
		t.Fatalf("a tick with no new traffic changed the index: %+v -> %+v", before, after)
	}
	observeQuery(ix, &wl.Queries[0])
	if !tick(t, ix) {
		t.Fatal("the tick after new traffic installed nothing")
	}
}

// TestAdaptTickSkipsWithoutGain: with traffic since the last tick but a
// layout its plan cannot improve — Optimize just solved the same workload,
// and the new traffic doubles it — the tick installs nothing: no rebuild,
// no epoch, no snapshot generation, no file in the data directory.
func TestAdaptTickSkipsWithoutGain(t *testing.T) {
	ix, wl := adaptTestIndex(t, 91, 92)
	if _, err := ix.Optimize(); err != nil {
		t.Fatal(err)
	}
	for i := range wl.Queries {
		for f := 0; f < wl.Queries[i].Freq%4+1; f++ {
			observeQuery(ix, &wl.Queries[i])
		}
	}
	before := tickStateOf(t, ix)
	if tick(t, ix) {
		t.Fatal("a tick with nothing to gain installed a mapping")
	}
	if after := tickStateOf(t, ix); !reflect.DeepEqual(after, before) {
		t.Fatalf("a tick with nothing to gain changed the index: %+v -> %+v", before, after)
	}
}

// TestAdaptTickInstallsOnGain: a tick over observed traffic on the default
// layout installs once — one remap, one epoch, one snapshot generation —
// and changes no answer.
func TestAdaptTickInstallsOnGain(t *testing.T) {
	ix, wl := adaptTestIndex(t, 101, 102)
	var queries []string
	var want [][]uint64
	for i := 0; i < len(wl.Queries); i += 9 {
		q := strings.Join(wl.Queries[i].Words, " ")
		queries = append(queries, q)
		want = append(want, idsOf(ix.BroadMatch(q)))
	}
	before := tickStateOf(t, ix)
	if !tick(t, ix) {
		t.Fatal("a tick over fresh traffic on the default layout installed nothing")
	}
	after := tickStateOf(t, ix)
	if after.remaps != before.remaps+1 || after.epoch != before.epoch+1 || after.snapshots != before.snapshots+1 {
		t.Errorf("install moved remaps %d -> %d, epoch %d -> %d, snapshots %d -> %d; want one step each",
			before.remaps, after.remaps, before.epoch, after.epoch, before.snapshots, after.snapshots)
	}
	if after.snap.base.NumNodes() >= before.snap.base.NumNodes() {
		t.Errorf("nodes %d -> %d: the installed layout merged nothing", before.snap.base.NumNodes(), after.snap.base.NumNodes())
	}
	for i, q := range queries {
		if got := idsOf(ix.BroadMatch(q)); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %q changed results: %v, was %v", q, got, want[i])
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ix.PersistErr(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptConcurrentWithQueriesAndChurn runs the loop while queries and
// mutations hammer the index; under -race this exercises the install path
// beside the overlay, and results stay correct throughout.
func TestAdaptConcurrentWithQueriesAndChurn(t *testing.T) {
	ix, wl := adaptTestIndex(t, 111, 112)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := &wl.Queries[(i*7+r)%len(wl.Queries)]
				observeQuery(ix, q)
				ix.BroadMatch(strings.Join(q.Words, " "))
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := uint64(1_000_000 + i)
			ix.Insert(NewAd(id, fmt.Sprintf("churn phrase %d", i%37), Meta{}))
			ix.Delete(id, fmt.Sprintf("churn phrase %d", i%37))
		}
	}()
	ix.StartAdapt(time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); ix.Remaps() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	ix.StopAdapt()
	close(stop)
	wg.Wait()
	if ix.Remaps() == 0 {
		t.Fatal("the loop installed nothing in ten seconds of traffic")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ix.PersistErr(); err != nil {
		t.Fatal(err)
	}
}

// TestStartStopAdapt: lifecycle — a second StartAdapt does not start a
// second loop, StopAdapt stops the one, and StopAdapt without a loop (or
// twice) is a no-op.
func TestStartStopAdapt(t *testing.T) {
	ix := Build(sampleAds(), Options{})
	ix.StartAdapt(time.Millisecond)
	stop := ix.adaptStop
	ix.StartAdapt(time.Millisecond)
	if ix.adaptStop != stop {
		t.Fatal("a second StartAdapt replaced the running loop")
	}
	ix.BroadMatch("used books")
	ix.StopAdapt()
	ix.StopAdapt()
	if ix.adaptStop != nil {
		t.Fatal("StopAdapt left the loop registered")
	}
	New(Options{}).StopAdapt() // never started: must not hang or panic
}

// TestStopAdaptJoinsTick: StopAdapt returns only once the tick in flight
// has finished, so nothing the loop does outlives it. The test holds the
// writer lock, so the first tick, which finds a gain, blocks in its install.
func TestStopAdaptJoinsTick(t *testing.T) {
	const hubs = 4
	ix := Build(hubCatalog(hubs), Options{})
	for j := 0; j < 200; j++ {
		ix.BroadMatch(hubQuery(j%hubs, j/hubs)) // traffic a tick gains on
	}
	ix.mu.Lock()
	ix.StartAdapt(time.Millisecond)
	for ix.adaptSeen.Load() == 0 { // the first tick has begun
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		ix.StopAdapt()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Error("StopAdapt returned while a tick was still installing")
	case <-time.After(50 * time.Millisecond):
	}
	ix.mu.Unlock()
	<-stopped
	if ix.Remaps() != 1 {
		t.Errorf("%d re-mappings installed, want the one tick's", ix.Remaps())
	}
}

// TestCloseStopsAdapt is the regression test for a shutdown that closed
// the durable store with the loop still running: a tick that installed
// after Close found the store closed and set PersistErr. Close joins the
// loop, so under traffic that keeps the planner finding gains, no re-mapping
// is installed after Close and nothing fails to persist.
func TestCloseStopsAdapt(t *testing.T) {
	const hubs = 200
	ix, _, err := OpenDurable(t.TempDir(), Options{}, DurableConfig{Bootstrap: hubCatalog(hubs)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The focus moves to a hub no query has named yet about every
		// millisecond, so each tick has fresh hot hubs to merge, for well
		// past the ticks it takes to reach Close.
		for h := 0; h < hubs; h++ {
			for j := 0; j < 50; j++ {
				q := hubQuery(h, j)
				ix.BroadMatch(q)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	ix.StartAdapt(10 * time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); ix.Remaps() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	closed := ix.Remaps()
	<-done
	if closed < 2 {
		t.Fatalf("the loop installed %d mappings before Close: the traffic exercised nothing", closed)
	}
	if got := ix.Remaps(); got != closed {
		t.Errorf("%d re-mappings installed after Close", got-closed)
	}
	if err := ix.PersistErr(); err != nil {
		t.Errorf("PersistErr after Close: %v", err)
	}
}

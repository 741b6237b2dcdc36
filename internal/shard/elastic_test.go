package shard

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/multiserver"
	"adindex/internal/textnorm"
)

// elasticAds builds n single-word ads ("w0".."wn-1"), so querying "wK"
// broad-matches exactly ad K — any loss or duplication of a copy during
// a handoff shows up as a wrong result count.
func elasticAds(n int) []corpus.Ad {
	ads := make([]corpus.Ad, 0, n)
	for i := 0; i < n; i++ {
		ads = append(ads, corpus.NewAd(uint64(i+1), fmt.Sprintf("w%d", i), corpus.Meta{}))
	}
	return ads
}

// clusterRecords is the cluster's answer to q as a client on its live
// route gets it: every shard position asked through its frame backend at
// one routing epoch (all over again if a cutover intervenes), the
// replies merged by ID — stable across positions, duplicates kept —
// leaving out the positions in skip.
func clusterRecords(t testing.TB, ec *ElasticCluster, q string, skip ...int) ([]uint64, []multiserver.AdMeta) {
	t.Helper()
	type record struct {
		id   uint64
		meta multiserver.AdMeta
	}
	var all []record
	for stale := true; stale; {
		stale, all = false, all[:0]
		req := multiserver.Request{Query: q, Records: true, Tagged: true, Epoch: ec.Epoch()}
		for id := 0; id < ec.MaxShards() && !stale; id++ {
			if slices.Contains(skip, id) {
				continue
			}
			body, err := shardBackend{ec: ec, id: id}.AppendMatch(nil, req)
			if stale = errors.Is(err, multiserver.ErrStaleEpoch); stale {
				continue
			}
			ids, meta, _, derr := multiserver.DecodeRecords(body)
			if err != nil || derr != nil {
				t.Errorf("position %d, query %q: %v, %v", id, q, err, derr)
				return nil, nil
			}
			for i := range ids {
				all = append(all, record{ids[i], meta[i]})
			}
		}
	}
	slices.SortStableFunc(all, func(a, b record) int { return cmp.Compare(a.id, b.id) })
	var ids []uint64
	var meta []multiserver.AdMeta
	for _, r := range all {
		ids, meta = append(ids, r.id), append(meta, r.meta)
	}
	return ids, meta
}

// clusterIDs is clusterRecords keeping the IDs.
func clusterIDs(t testing.TB, ec *ElasticCluster, q string) []uint64 {
	t.Helper()
	ids, _ := clusterRecords(t, ec, q)
	return ids
}

// checkOwnership fails the test unless every shard holds exactly the ads
// of the slots it owns.
func checkOwnership(t testing.TB, ec *ElasticCluster) {
	t.Helper()
	if err := ec.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
}

// checkVisibility asserts every ad is matched exactly once, the logical
// count is right, and the ownership invariant holds.
func checkVisibility(t *testing.T, ec *ElasticCluster, ads []corpus.Ad, gone map[uint64]bool) {
	t.Helper()
	checkOwnership(t, ec)
	want := 0
	for _, ad := range ads {
		ids := clusterIDs(t, ec, ad.Phrase)
		if gone[ad.ID] {
			if len(ids) != 0 {
				t.Fatalf("deleted ad %d still matched: %v", ad.ID, ids)
			}
			continue
		}
		want++
		if len(ids) != 1 || ids[0] != ad.ID {
			t.Fatalf("ad %d (%q) matched %v, want exactly itself", ad.ID, ad.Phrase, ids)
		}
	}
	if got := ec.NumAds(); got != want {
		t.Fatalf("NumAds = %d, want %d", got, want)
	}
}

// movingPhrase returns a phrase whose slot is in the moving set (or not,
// when in=false), for crafting dual-write traffic.
func movingPhrase(t *testing.T, table *RoutingTable, moving map[int]bool, in bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("mv%d", i)
		if moving[table.SlotOfWords(textnorm.WordSet(p))] == in {
			return p
		}
	}
	t.Fatalf("no phrase found with moving=%v", in)
	return ""
}

func TestElasticSplitLive(t *testing.T) {
	ads := elasticAds(200)
	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	checkVisibility(t, ec, ads, nil)

	moving := map[int]bool{}
	for _, s := range ec.Table().SplitSlots(0) {
		moving[s] = true
	}
	// Mutations land mid-handoff, on moving and non-moving slots alike:
	// the dual-write journal must carry the moving ones across.
	movIns := corpus.NewAd(9001, movingPhrase(t, ec.Table(), moving, true), corpus.Meta{})
	stayIns := corpus.NewAd(9002, movingPhrase(t, ec.Table(), moving, false), corpus.Meta{})
	var movDel corpus.Ad
	for _, ad := range ads {
		if moving[ec.Table().SlotOfWords(ad.Words)] {
			movDel = ad
			break
		}
	}
	if movDel.ID == 0 {
		t.Fatalf("no seeded ad in a moving slot")
	}
	ec.handoffFault = func(phase string) error {
		if phase == "load" {
			ec.Insert(movIns)
			ec.Insert(stayIns)
			if !ec.Delete(movDel.ID, movDel.Phrase) {
				t.Errorf("mid-handoff delete of %d failed", movDel.ID)
			}
		}
		return nil
	}

	newShard, err := ec.Split(0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if newShard != 2 || ec.NumShards() != 3 || ec.Epoch() != 2 {
		t.Fatalf("post-split shard=%d shards=%d epoch=%d", newShard, ec.NumShards(), ec.Epoch())
	}
	all := append(append([]corpus.Ad(nil), ads...), movIns, stayIns)
	checkVisibility(t, ec, all, map[uint64]bool{movDel.ID: true})

	st := ec.Status()
	if st.Completed != 1 || st.Aborted != 0 || st.Migrating || st.ActiveShards != 3 {
		t.Fatalf("status after split = %+v", st)
	}
	// The new shard actually owns and serves data.
	if len(ec.Table().SlotsOf(2)) == 0 {
		t.Fatalf("split target owns no slots")
	}
}

func TestElasticMergeAndMigrate(t *testing.T) {
	ads := elasticAds(150)
	ec, err := NewElastic(ads, 3, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}

	// Migrate half of shard 0's slots onto shard 1.
	if err := ec.Migrate(0, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if ec.Epoch() != 2 || ec.NumShards() != 3 {
		t.Fatalf("post-migrate epoch=%d shards=%d", ec.Epoch(), ec.NumShards())
	}
	checkVisibility(t, ec, ads, nil)

	// Merge shard 2 away entirely.
	if err := ec.Merge(2, 0); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := ec.Table().ActiveShards(); len(got) != 2 {
		t.Fatalf("active shards after merge = %v", got)
	}
	checkVisibility(t, ec, ads, nil)

	// Retired shard: merging from it again fails cleanly.
	if err := ec.Merge(2, 0); err == nil {
		t.Fatalf("merge from retired shard accepted")
	}
	// Mutations still route correctly after two rebalances.
	extra := corpus.NewAd(9100, "post rebalance insert", corpus.Meta{})
	ec.Insert(extra)
	if ids := clusterIDs(t, ec, extra.Phrase); len(ids) != 1 || ids[0] != extra.ID {
		t.Fatalf("post-rebalance insert matched %v", ids)
	}
	if !ec.Delete(extra.ID, extra.Phrase) {
		t.Fatalf("post-rebalance delete failed")
	}
}

func TestElasticAbortRollsBack(t *testing.T) {
	ads := elasticAds(120)
	ops := map[string]func(ec *ElasticCluster) error{
		"split":   func(ec *ElasticCluster) error { _, err := ec.Split(0); return err },
		"migrate": func(ec *ElasticCluster) error { return ec.Migrate(0, 1) },
	}
	for name, op := range ops {
		for _, phase := range []string{"begin", "load", "catchup"} {
			ec, err := NewElastic(ads, 2, ElasticOptions{})
			if err != nil {
				t.Fatalf("NewElastic: %v", err)
			}
			boom := errors.New("injected " + phase + " fault")
			ec.handoffFault = func(p string) error {
				// Status reports the phase each hook runs in.
				if got := ec.Status().Phase; got != p {
					t.Errorf("%s: hook at %q, Status().Phase = %q", name, p, got)
				}
				if p == phase {
					return boom
				}
				return nil
			}
			if err := op(ec); !errors.Is(err, boom) {
				t.Fatalf("%s, phase %s: err = %v, want injected fault", name, phase, err)
			}
			// Last stable epoch, shard count, and every ad are intact.
			if ec.Epoch() != 1 || ec.NumShards() != 2 {
				t.Fatalf("%s, phase %s: epoch=%d shards=%d after abort", name, phase, ec.Epoch(), ec.NumShards())
			}
			checkVisibility(t, ec, ads, nil)
			st := ec.Status()
			if st.Aborted != 1 || st.Completed != 0 || st.Migrating || st.Phase != "" || st.LastError == "" {
				t.Fatalf("%s, phase %s: status after abort = %+v", name, phase, st)
			}
			// The deployment is not wedged: a clean retry succeeds.
			ec.handoffFault = nil
			if err := op(ec); err != nil {
				t.Fatalf("%s, phase %s: retry after abort: %v", name, phase, err)
			}
			checkVisibility(t, ec, ads, nil)
		}
	}
}

// TestElasticJournalBothSides: a migration journals every mutation on a
// slot either side owns — moving, kept by the source, or the target's
// own — and replays it onto the side that owns the slot after the
// cutover; a third shard's mutations stay out of the journal.
func TestElasticJournalBothSides(t *testing.T) {
	ads := elasticAds(300)
	ec, err := NewElastic(ads, 3, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	moving := map[int]bool{}
	for _, s := range ec.Table().SplitSlots(0) {
		moving[s] = true
	}
	side := func(ad corpus.Ad) string {
		slot := ec.Table().SlotOfWords(ad.Words)
		switch owner := ec.Table().Owners[slot]; {
		case moving[slot]:
			return "moving"
		case owner == 0:
			return "kept"
		case owner == 1:
			return "target"
		}
		return "bystander"
	}
	// One seeded ad to delete and one new ad to insert on each side.
	victims, fresh := map[string]corpus.Ad{}, map[string]corpus.Ad{}
	for _, ad := range ads {
		if _, ok := victims[side(ad)]; !ok {
			victims[side(ad)] = ad
		}
	}
	for i := 0; len(fresh) < 4; i++ {
		ad := corpus.NewAd(uint64(9000+i), fmt.Sprintf("fresh%d", i), corpus.Meta{})
		if _, ok := fresh[side(ad)]; !ok {
			fresh[side(ad)] = ad
		}
	}
	if len(victims) != 4 {
		t.Fatalf("seeded ads cover sides %v", victims)
	}
	gone := map[uint64]bool{}
	all := append([]corpus.Ad(nil), ads...)
	ec.handoffFault = func(p string) error {
		if p != "load" {
			return nil
		}
		for _, s := range []string{"moving", "kept", "target", "bystander"} {
			ec.Insert(fresh[s])
			all = append(all, fresh[s])
			if !ec.Delete(victims[s].ID, victims[s].Phrase) {
				t.Errorf("mid-handoff delete on the %s side failed", s)
			}
			gone[victims[s].ID] = true
		}
		if got := ec.Status().DeltaRecords; got != 6 {
			t.Errorf("journal holds %d records, want the 6 of the moving, kept and target sides", got)
		}
		return nil
	}
	if err := ec.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	checkVisibility(t, ec, all, gone)
}

func TestElasticAbortRebuildsExistingTarget(t *testing.T) {
	ads := elasticAds(120)
	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	boom := errors.New("target died mid-catch-up")
	ec.handoffFault = func(p string) error {
		if p == "catchup" {
			return boom
		}
		return nil
	}
	// Migrate (existing target): the staged copies never reached shard 1,
	// so the abort leaves it with exactly its own ads.
	if err := ec.Migrate(0, 1); !errors.Is(err, boom) {
		t.Fatalf("Migrate err = %v, want injected fault", err)
	}
	if ec.Epoch() != 1 {
		t.Fatalf("epoch %d after aborted migrate, want 1", ec.Epoch())
	}
	checkVisibility(t, ec, ads, nil)
}

func TestElasticStagedCopiesInvisibleMidHandoff(t *testing.T) {
	ads := elasticAds(100)
	ec, err := NewElastic(ads, 2, ElasticOptions{})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	// At catch-up the staging indexes hold copies of every ad of both
	// sides; they are private, so queries stay single-copy and every live
	// shard holds only its own slots.
	checked := false
	ec.handoffFault = func(p string) error {
		if p == "catchup" {
			checked = true
			checkVisibility(t, ec, ads, nil)
			if st := ec.Status(); !st.Migrating || st.Kind != "split" {
				t.Errorf("mid-handoff status = %+v", st)
			}
		}
		return nil
	}
	if _, err := ec.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if !checked {
		t.Fatalf("catch-up hook never ran")
	}
	checkVisibility(t, ec, ads, nil)
}

func TestElasticGuards(t *testing.T) {
	ec, err := NewElastic(elasticAds(40), 2, ElasticOptions{MaxShards: 3})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	if _, err := ec.Split(0); err != nil {
		t.Fatalf("first split: %v", err)
	}
	// Growth past MaxShards fails and leaves the cluster stable.
	if _, err := ec.Split(0); err == nil {
		t.Fatalf("split past MaxShards accepted")
	}
	if ec.NumShards() != 3 || ec.Epoch() != 2 {
		t.Fatalf("cluster changed by rejected split: shards=%d epoch=%d", ec.NumShards(), ec.Epoch())
	}
	if err := ec.Migrate(0, 9); err == nil {
		t.Fatalf("migrate to bogus shard accepted")
	}
	if err := ec.Merge(0, 0); err == nil {
		t.Fatalf("self-merge accepted")
	}
	if _, err := NewElastic(nil, 9, ElasticOptions{MaxShards: 3}); err == nil {
		t.Fatalf("initial shards above MaxShards accepted")
	}
	// The delta-window bound aborts a handoff that cannot converge.
	ec2, _ := NewElastic(elasticAds(40), 2, ElasticOptions{maxDeltaRecords: 2})
	moving := map[int]bool{}
	for _, s := range ec2.Table().SplitSlots(0) {
		moving[s] = true
	}
	hot := movingPhrase(t, ec2.Table(), moving, true)
	ec2.handoffFault = func(p string) error {
		if p == "load" {
			for i := 0; i < 5; i++ {
				ec2.Insert(corpus.NewAd(uint64(8000+i), hot, corpus.Meta{}))
			}
		}
		return nil
	}
	if _, err := ec2.Split(0); err == nil || !strings.Contains(err.Error(), "dual-write window") {
		t.Fatalf("unbounded window err = %v, want window abort", err)
	}
	if ec2.Epoch() != 1 {
		t.Fatalf("epoch moved on window abort: %d", ec2.Epoch())
	}
}

func TestElasticSuggestSplit(t *testing.T) {
	ads := elasticAds(90)
	ec, err := NewElastic(ads, 3, ElasticOptions{MaxShards: 4})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	// Hammer the words owned by shard 1 so its serving counter leads.
	for _, ad := range ads {
		if ec.Table().OwnerOf(ad.Words) == 1 {
			for i := 0; i < 5; i++ {
				clusterIDs(t, ec, ad.Phrase)
			}
		}
	}
	if got := ec.SuggestSplit(); got != 1 {
		t.Fatalf("SuggestSplit = %d, want hot shard 1", got)
	}
	// At the shard cap there is nothing to suggest.
	if _, err := ec.Split(1); err != nil {
		t.Fatalf("Split(1): %v", err)
	}
	if got := ec.SuggestSplit(); got != -1 {
		t.Fatalf("SuggestSplit at cap = %d, want -1", got)
	}
}

func TestElasticServeEpochChecked(t *testing.T) {
	ads := elasticAds(80)
	ec, err := NewElastic(ads, 2, ElasticOptions{MaxShards: 4})
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	es, err := ec.Serve()
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer es.Close()
	if len(es.Addrs()) != 4 {
		t.Fatalf("served %d positions, want MaxShards=4", len(es.Addrs()))
	}

	conn, err := multiserver.DialConn(es.Addrs()[0], multiserver.ConnOpts{})
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	defer conn.Close()

	// Pick an ad owned by shard 0 and query its own server at the
	// current epoch.
	var target corpus.Ad
	for _, ad := range ads {
		if ec.Table().OwnerOf(ad.Words) == 0 {
			target = ad
			break
		}
	}
	resp, err := conn.Exchange(multiserver.AppendEpochRequest(nil, ec.Epoch(), []byte(target.Phrase)))
	if err != nil {
		t.Fatalf("exchange at current epoch: %v", err)
	}
	if ids, _ := multiserver.DecodeIDs(resp); len(ids) != 1 || ids[0] != target.ID {
		t.Fatalf("shard 0 answered %v, want [%d]", ids, target.ID)
	}

	// A not-yet-active position answers empty, not an error.
	conn3, err := multiserver.DialConn(es.Addrs()[3], multiserver.ConnOpts{})
	if err != nil {
		t.Fatalf("DialConn idle position: %v", err)
	}
	defer conn3.Close()
	resp, err = conn3.Exchange(multiserver.AppendEpochRequest(nil, ec.Epoch(), []byte(target.Phrase)))
	if err != nil {
		t.Fatalf("idle position exchange: %v", err)
	}
	if ids, _ := multiserver.DecodeIDs(resp); len(ids) != 0 {
		t.Fatalf("idle position answered %v, want empty", ids)
	}

	// After a split the old epoch is rejected with the typed error and
	// the new epoch is served.
	oldEpoch := ec.Epoch()
	if _, err := ec.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	_, err = conn.Exchange(multiserver.AppendEpochRequest(nil, oldEpoch, []byte(target.Phrase)))
	if !errors.Is(err, multiserver.ErrStaleEpoch) {
		t.Fatalf("stale query err = %v, want ErrStaleEpoch", err)
	}
	if _, err := conn.Exchange(multiserver.AppendEpochRequest(nil, ec.Epoch(), []byte(target.Phrase))); err != nil {
		t.Fatalf("refreshed exchange: %v", err)
	}
}

// allocated is the bytes fn allocates: the least of three runs, so that a
// goroutine a previous test left winding down does not count.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNewElasticAllocations: an elastic start builds its shards over
// positions in the caller's corpus, so it allocates about what one index
// over the whole corpus does, not that plus a copy of every ad, and it
// leaves the caller's slice exactly as it was.
func TestNewElasticAllocations(t *testing.T) {
	ads := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 1}).Ads
	before := slices.Clone(ads)
	local := allocated(func() { core.New(ads, core.Options{}) })
	elastic := allocated(func() {
		if _, err := NewElastic(ads, 2, ElasticOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewElastic(%d ads, 2) allocates %.1f MB, core.New %.1f MB", len(ads), float64(elastic)/1e6, float64(local)/1e6)
	if float64(elastic) > 1.15*float64(local) {
		t.Errorf("NewElastic allocates %d B, more than 1.15x core.New's %d B", elastic, local)
	}
	if !reflect.DeepEqual(ads, before) {
		t.Error("NewElastic changed the caller's corpus")
	}
}

func BenchmarkNewElastic(b *testing.B) {
	ads := corpus.Generate(corpus.GenOptions{NumAds: 20000, Seed: 1}).Ads
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := NewElastic(ads, 2, ElasticOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

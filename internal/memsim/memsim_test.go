package memsim

import (
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/workload"
)

func TestAccessCountsLinesAndPages(t *testing.T) {
	s := New(Config{})
	// 100 bytes starting at 0 touch lines 0 and 1 (64 B lines).
	s.Access(0, 100)
	st := s.Stats()
	if st.Accesses != 2 {
		t.Errorf("Accesses = %d, want 2", st.Accesses)
	}
	if st.TLBMisses != 1 { // both lines on page 0; one TLB miss
		t.Errorf("TLBMisses = %d, want 1", st.TLBMisses)
	}
	if st.CacheMisses != 2 {
		t.Errorf("CacheMisses = %d, want 2 (cold)", st.CacheMisses)
	}
	// Re-access: everything warm.
	s.Reset()
	s.Access(0, 100)
	st = s.Stats()
	if st.TLBMisses != 0 || st.CacheMisses != 0 {
		t.Errorf("warm access missed: %+v", st)
	}
}

func TestAccessZeroSize(t *testing.T) {
	s := New(Config{})
	s.Access(100, 0)
	s.Access(100, -5)
	if s.Stats().Accesses != 0 {
		t.Errorf("zero-size access counted: %+v", s.Stats())
	}
}

func TestAccessSpansPages(t *testing.T) {
	s := New(Config{})
	// 2 pages: 4096*2 bytes from 0.
	s.Access(0, 8192)
	if s.Stats().TLBMisses != 2 {
		t.Errorf("TLBMisses = %d, want 2", s.Stats().TLBMisses)
	}
}

func TestTLBEviction(t *testing.T) {
	s := New(Config{TLBEntries: 2})
	s.Access(0<<12, 1)
	s.Access(1<<12, 1)
	s.Access(2<<12, 1) // evicts page 0
	s.Access(0<<12, 1) // miss again
	if got := s.Stats().TLBMisses; got != 4 {
		t.Errorf("TLBMisses = %d, want 4", got)
	}
	// Page 2 is still resident (LRU).
	before := s.Stats().TLBMisses
	s.Access(2<<12, 1)
	if s.Stats().TLBMisses != before {
		t.Error("LRU page evicted prematurely")
	}
}

func TestCacheSetConflicts(t *testing.T) {
	// 2 sets, 1 way: lines mapping to the same set thrash.
	s := New(Config{CacheSets: 2, CacheWays: 1})
	s.Access(0<<6, 1) // set 0
	s.Access(2<<6, 1) // set 0: evicts line 0
	s.Access(0<<6, 1) // miss
	if got := s.Stats().CacheMisses; got != 3 {
		t.Errorf("CacheMisses = %d, want 3", got)
	}
}

func TestBranchPredictor(t *testing.T) {
	s := New(Config{})
	// Always-taken branch: after warm-up it predicts correctly.
	for i := 0; i < 10; i++ {
		s.Branch(1, true)
	}
	st := s.Stats()
	if st.Branches != 10 {
		t.Errorf("Branches = %d", st.Branches)
	}
	if st.BranchMispredicts > 2 {
		t.Errorf("steady branch mispredicted %d times", st.BranchMispredicts)
	}
	// Alternating branch at another site: high mispredict rate.
	s.Reset()
	for i := 0; i < 100; i++ {
		s.Branch(2, i%2 == 0)
	}
	if got := s.Stats().BranchMispredicts; got < 40 {
		t.Errorf("alternating branch mispredicts = %d, want ~50", got)
	}
}

func TestTotalCycles(t *testing.T) {
	st := Stats{PageWalkCycles: 10, CacheMissCycles: 20, MispredictCycles: 5}
	if st.TotalCycles() != 35 {
		t.Errorf("TotalCycles = %d", st.TotalCycles())
	}
}

// buildReplayFixtures returns a workload and the core indexes built over
// one corpus under the identity mapping and under the optimized one.
func buildReplayFixtures(t testing.TB, nAds, nQueries int) (*workload.Workload, *core.Index, *core.Index) {
	t.Helper()
	c := corpus.Generate(corpus.GenOptions{NumAds: nAds, Seed: 61})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: nQueries, Seed: 62})
	gs := optimize.BuildGroups(c.Ads, wl)
	build := func(mapping map[string][]string) *core.Index {
		ix, err := core.NewWithMapping(c.Ads, mapping, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	identity := build(optimize.IdentityMapping(gs, optimize.Options{}).Mapping)
	full := build(optimize.Optimize(gs, optimize.Options{}).Mapping)
	return wl, identity, full
}

// A layout is core's nodes as core holds them: the same node count, and
// each node the bytes of core's node, under either mapping.
func TestReplayLayoutConsistency(t *testing.T) {
	_, identity, full := buildReplayFixtures(t, 800, 300)
	li, lf := BuildLayout(identity), BuildLayout(full)
	for _, v := range []struct {
		name string
		base *core.Index
		l    *IndexLayout
	}{{"identity", identity, li}, {"optimized", full, lf}} {
		st := v.base.Stats()
		if v.l.NumNodes() != st.NumNodes || v.l.ArenaBytes != uint64(st.NodeBytes) {
			t.Errorf("%s: layout %d nodes / %d B, core %d nodes / %d B",
				v.name, v.l.NumNodes(), v.l.ArenaBytes, st.NumNodes, st.NodeBytes)
		}
		v.base.Nodes(func(h uint64, records []corpus.Ad) {
			bytes := 0
			for i := range records {
				bytes += records[i].Size()
			}
			if n := v.l.nodes[h]; n == nil || n.recEnd[len(n.recEnd)-1] != bytes {
				t.Errorf("%s: node %x is not laid out at core's %d B", v.name, h, bytes)
			}
		})
	}
	if lf.NumNodes() >= li.NumNodes() {
		t.Errorf("remapped layout should have fewer nodes: %d vs %d", lf.NumNodes(), li.NumNodes())
	}
	// Fewer nodes never need a bigger table (slot count rounds to a power
	// of two, so equality is possible).
	if lf.TableBytes > li.TableBytes {
		t.Errorf("remapped table should not be bigger: %d vs %d", lf.TableBytes, li.TableBytes)
	}
}

// The paper's Section VII-C findings must emerge from the simulation:
// fewer page walks and cache misses with re-mapping; branch mispredictions
// move the other way (or at least do not improve as much).
func TestReplayReproducesCounterFindings(t *testing.T) {
	wl, identity, full := buildReplayFixtures(t, 10000, 1500)
	stream := wl.Stream(5000, 63)

	// A small TLB relative to the index working set, as on the paper's
	// 2008-era hardware relative to a 180M-ad index.
	cfg := Config{TLBEntries: 16, CacheSets: 1024, CacheWays: 8}
	run := func(base *core.Index) Stats {
		layout := BuildLayout(base)
		sim := New(cfg)
		for _, q := range stream {
			layout.ReplayQuery(sim, q.Words)
		}
		return sim.Stats()
	}
	noRemap := run(identity)
	remap := run(full)

	if remap.TLBMisses >= noRemap.TLBMisses {
		t.Errorf("re-mapping should cut TLB misses: %d vs %d", remap.TLBMisses, noRemap.TLBMisses)
	}
	if remap.CacheMisses >= noRemap.CacheMisses {
		t.Errorf("re-mapping should cut cache misses: %d vs %d", remap.CacheMisses, noRemap.CacheMisses)
	}
	if remap.PageWalkCycles >= noRemap.PageWalkCycles {
		t.Errorf("re-mapping should cut page-walk cycles: %d vs %d", remap.PageWalkCycles, noRemap.PageWalkCycles)
	}
	// Branch behaviour: both structures must execute branches and the
	// predictor must see some mispredictions (the paper found these move
	// against the re-mapped structure; our simple 2-bit model reports the
	// comparison rather than asserting its direction).
	if remap.Branches == 0 || noRemap.Branches == 0 {
		t.Fatalf("no branches simulated: %+v %+v", remap, noRemap)
	}
	if remap.BranchMispredicts == 0 || noRemap.BranchMispredicts == 0 {
		t.Errorf("expected some mispredictions: remap=%d noremap=%d",
			remap.BranchMispredicts, noRemap.BranchMispredicts)
	}
}

func TestReplayEmptyQuery(t *testing.T) {
	_, identity, _ := buildReplayFixtures(t, 50, 10)
	layout := BuildLayout(identity)
	sim := New(Config{})
	layout.ReplayQuery(sim, nil)
	layout.ReplayQuery(sim, []string{"notincorpusatall"})
	if sim.Stats().Accesses != 0 {
		t.Errorf("empty/unknown query accessed memory: %+v", sim.Stats())
	}
}

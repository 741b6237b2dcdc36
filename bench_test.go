package adindex

// Benchmarks, one (or more) per table and figure of the paper's
// evaluation. Custom metrics report the quantity each figure actually
// plots (bytes/query for Figure 8, probes/query for Figure 10, ...);
// cmd/adbench prints the same results as full tables. Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/hashindex"
	"adindex/internal/invindex"
	"adindex/internal/multiserver"
	"adindex/internal/optimize"
	"adindex/internal/treeindex"
	"adindex/internal/workload"
)

// Shared fixtures, built once.
const (
	benchAds     = 50000
	benchQueries = 5000
	benchStream  = 10000
)

var (
	benchOnce sync.Once
	bCorpus   *corpus.Corpus
	bWorkload *workload.Workload
	bStream   []*workload.Query
	bCore     *core.Index
	bUnmod    *invindex.Unmodified
	bMod      *invindex.Modified
)

func initBenchFixtures() {
	benchOnce.Do(func() {
		bCorpus = corpus.Generate(corpus.GenOptions{NumAds: benchAds, Seed: 1})
		bWorkload = workload.Generate(bCorpus, workload.GenOptions{NumQueries: benchQueries, Seed: 2})
		bStream = bWorkload.Stream(benchStream, 3)
		bCore = core.New(bCorpus.Ads, core.Options{})
		bUnmod = invindex.NewUnmodified(bCorpus.Ads)
		bMod = invindex.NewModified(bCorpus.Ads)
	})
}

func benchSetup(b *testing.B) {
	b.Helper()
	initBenchFixtures()
}

func streamQuery(i int) []string { return bStream[i%len(bStream)].Words }

// --- §VII-A: throughput of the three structures (Table/headline) ---

func BenchmarkTableVIIA_HashStructure(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bCore.BroadMatch(streamQuery(i), nil)
	}
}

func BenchmarkTableVIIA_UnmodifiedInverted(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bUnmod.BroadMatch(streamQuery(i), nil)
	}
}

func BenchmarkTableVIIA_ModifiedInverted(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bMod.BroadMatch(streamQuery(i), nil)
	}
}

func BenchmarkTableVIIA_ModifiedScanOnlyControl(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bMod.ScanOnly(streamQuery(i), nil)
	}
}

// --- Figure 8: data volume per query (reported as bytes/query) ---

func benchDataVolume(b *testing.B, match func([]string, *costmodel.Counters)) {
	benchSetup(b)
	var c costmodel.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match(streamQuery(i), &c)
	}
	b.ReportMetric(float64(c.BytesScanned)/float64(b.N), "bytes/query")
	b.ReportMetric(float64(c.RandomAccesses)/float64(b.N), "randaccess/query")
}

func BenchmarkFig8_HashStructureBytes(b *testing.B) {
	benchDataVolume(b, func(q []string, c *costmodel.Counters) { bCore.BroadMatch(q, c) })
}

func BenchmarkFig8_UnmodifiedInvertedBytes(b *testing.B) {
	benchDataVolume(b, func(q []string, c *costmodel.Counters) { bUnmod.BroadMatch(q, c) })
}

func BenchmarkFig8_ModifiedInvertedBytes(b *testing.B) {
	benchDataVolume(b, func(q []string, c *costmodel.Counters) { bMod.BroadMatch(q, c) })
}

// --- Figure 10: re-mapping variants ---

var (
	fig10Once sync.Once
	fig10None *core.Index
	fig10Long *core.Index
	fig10Full *core.Index
)

func fig10Setup(b *testing.B) {
	benchSetup(b)
	fig10Once.Do(func() {
		gs := optimize.BuildGroups(bCorpus.Ads, bWorkload)
		long := optimize.LongPhraseMapping(gs, optimize.Options{MaxWords: 10})
		full := optimize.Optimize(gs, optimize.Options{MaxWords: 10})
		fig10None = core.New(bCorpus.Ads, core.Options{MaxWords: 16, MaxQueryWords: 16})
		var err error
		fig10Long, err = core.NewWithMapping(bCorpus.Ads, long.Mapping,
			core.Options{MaxWords: 10, MaxQueryWords: 16})
		if err != nil {
			panic(err)
		}
		fig10Full, err = core.NewWithMapping(bCorpus.Ads, full.Mapping,
			core.Options{MaxWords: 10, MaxQueryWords: 16})
		if err != nil {
			panic(err)
		}
	})
}

// benchFig10 takes a selector, not the index itself: the fixture globals
// are only populated by fig10Setup, which must run first.
func benchFig10(b *testing.B, pick func() *core.Index) {
	fig10Setup(b)
	ix := pick()
	var c costmodel.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BroadMatch(streamQuery(i), &c)
	}
	b.ReportMetric(float64(c.HashProbes)/float64(b.N), "probes/query")
	b.ReportMetric(float64(c.NodesVisited)/float64(b.N), "nodevisits/query")
}

func BenchmarkFig10_NoRemapping(b *testing.B) {
	benchFig10(b, func() *core.Index { return fig10None })
}

func BenchmarkFig10_LongPhrasesOnly(b *testing.B) {
	benchFig10(b, func() *core.Index { return fig10Long })
}

func BenchmarkFig10_FullRemapping(b *testing.B) {
	benchFig10(b, func() *core.Index { return fig10Full })
}

// --- §VII-B / Figure 9: two-server end-to-end request latency ---

func benchTwoServer(b *testing.B, backend multiserver.Backend) {
	benchSetup(b)
	indexSrv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{}, backend)
	if err != nil {
		b.Fatal(err)
	}
	defer indexSrv.Close()
	adSrv, err := multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, bCorpus.Ads)
	if err != nil {
		b.Fatal(err)
	}
	defer adSrv.Close()
	client, err := multiserver.Dial(indexSrv.Addr(), adSrv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := bStream[i%len(bStream)]
		if _, err := client.Query(joinWords(q.Words)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_TwoServer_HashStructure(b *testing.B) {
	benchTwoServer(b, multiserver.CoreBackend{Index: bCoreFor(b)})
}

// invertedBackend serves the two-server benchmark from the unmodified
// inverted-index baseline.
func invertedBackend(index *invindex.Unmodified) multiserver.Backend {
	return multiserver.BackendFunc(func(dst []byte, req multiserver.Request) ([]byte, error) {
		return multiserver.AppendAdIDs(dst, index.BroadMatchText(req.Query, nil), 0), nil
	})
}

func BenchmarkFig9_TwoServer_Inverted(b *testing.B) {
	benchSetup(b)
	benchTwoServer(b, invertedBackend(bUnmod))
}

func bCoreFor(b *testing.B) *core.Index {
	benchSetup(b)
	return bCore
}

// --- §VI: compressed lookup structure ---

var (
	compOnce sync.Once
	compIx   *hashindex.Index
)

func compSetup(b *testing.B) {
	benchSetup(b)
	compOnce.Do(func() {
		var err error
		compIx, err = hashindex.Build(bCorpus.Ads, nil, hashindex.Options{})
		if err != nil {
			panic(err)
		}
	})
}

func BenchmarkSectionVI_CompressedBroadMatch(b *testing.B) {
	compSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compIx.BroadMatch(streamQuery(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSectionVI_HashTableBroadMatch(b *testing.B) {
	compSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bCore.BroadMatch(streamQuery(i), nil)
	}
}

// --- Other match types (Section III-B), through the public query path ---

func BenchmarkExactMatch(b *testing.B) {
	pr3Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr3Index.ExactMatch(bCorpus.Ads[i%len(bCorpus.Ads)].Phrase)
	}
}

func BenchmarkPhraseMatch(b *testing.B) {
	pr3Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr3Index.PhraseMatch("find " + bCorpus.Ads[i%len(bCorpus.Ads)].Phrase + " online")
	}
}

// eightWordQuery pads ad i's bid phrase with the phrases of the ads after
// it, so the query contains at least one bid phrase contiguously and its
// subset enumeration is the 2^8 kind.
func eightWordQuery(i int) string {
	var toks []string
	for j := i; len(toks) < 8; j++ {
		toks = append(toks, strings.Fields(bCorpus.Ads[j%len(bCorpus.Ads)].Phrase)...)
	}
	return strings.Join(toks[:8], " ")
}

func benchEightWords(b *testing.B, match func(string) []Ad) {
	pr3Setup(b)
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = eightWordQuery(7 * i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match(queries[i%len(queries)])
	}
}

// BenchmarkExactMatch8Words pins that exact match stays one lookup however
// long the query: it must not pay the broad subset enumeration.
func BenchmarkExactMatch8Words(b *testing.B) {
	benchEightWords(b, func(q string) []Ad { return pr3Index.ExactMatch(q) })
}

func BenchmarkPhraseMatch8Words(b *testing.B) {
	benchEightWords(b, func(q string) []Ad { return pr3Index.PhraseMatch(q) })
}

// --- Maintenance (Section VI): inserts and deletes ---

func BenchmarkInsert(b *testing.B) {
	benchSetup(b)
	ix := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := bCorpus.Ads[i%len(bCorpus.Ads)]
		ad.ID = uint64(i + 1)
		ix.Insert(ad)
	}
}

func BenchmarkDelete(b *testing.B) {
	benchSetup(b)
	ix := New(Options{})
	for i := 0; i < b.N; i++ {
		ad := bCorpus.Ads[i%len(bCorpus.Ads)]
		ad.ID = uint64(i + 1)
		ix.Insert(ad)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := &bCorpus.Ads[i%len(bCorpus.Ads)]
		if !ix.Delete(uint64(i+1), ad.Phrase) {
			b.Fatalf("delete %d failed", i+1)
		}
	}
}

// --- Construction: the bulk loader behind core.New ---

// BenchmarkBuild200k builds the base over the corpus the end-to-end
// benchmark serves (seed 1, 200k ads): what an adserve start and every
// overlay fold at that size pay.
func BenchmarkBuild200k(b *testing.B) {
	ads := corpus.Generate(corpus.GenOptions{NumAds: 200_000, Seed: 1}).Ads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := core.New(ads, core.Options{}); ix.NumAds() != len(ads) {
			b.Fatalf("built %d ads, want %d", ix.NumAds(), len(ads))
		}
	}
}

// --- Ablation: max_words sweep (lookup bound vs node size) ---

func benchMaxWords(b *testing.B, maxWords int) {
	benchSetup(b)
	ix := core.New(bCorpus.Ads, core.Options{MaxWords: maxWords})
	var c costmodel.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BroadMatch(streamQuery(i), &c)
	}
	b.ReportMetric(float64(c.HashProbes)/float64(b.N), "probes/query")
}

func BenchmarkAblationMaxWords3(b *testing.B)  { benchMaxWords(b, 3) }
func BenchmarkAblationMaxWords5(b *testing.B)  { benchMaxWords(b, 5) }
func BenchmarkAblationMaxWords10(b *testing.B) { benchMaxWords(b, 10) }

// --- Workload re-optimization cost (Section VI maintenance) ---

func BenchmarkOptimizeMapping(b *testing.B) {
	benchSetup(b)
	gs := optimize.BuildGroups(bCorpus.Ads, bWorkload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.Optimize(gs, optimize.Options{MaxWords: 10})
	}
}

// --- §III-B extension: tree-structured lookup table ---

var (
	treeOnce sync.Once
	treeIx   *treeindex.Index
)

func treeSetup(b *testing.B) {
	benchSetup(b)
	treeOnce.Do(func() { treeIx = treeindex.New(bCorpus.Ads, treeindex.Options{}) })
}

func BenchmarkTreeIndexBroadMatch(b *testing.B) {
	treeSetup(b)
	var c costmodel.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treeIx.BroadMatch(streamQuery(i), &c)
	}
	b.ReportMetric(float64(c.RandomAccesses)/float64(b.N), "randaccess/query")
}

// --- Snapshot persistence ---

func BenchmarkSnapshotWrite(b *testing.B) {
	compSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := compIx.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	compSetup(b)
	var buf bytes.Buffer
	if _, err := compIx.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashindex.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// --- PR 3: the public snapshot read path ---

var (
	pr3Once    sync.Once
	pr3Index   *Index
	pr3Queries []string
)

func pr3Setup(b *testing.B) {
	b.Helper()
	initBenchFixtures()
	pr3Once.Do(func() {
		pr3Index = Build(bCorpus.Ads, Options{})
		pr3Queries = make([]string, len(bStream))
		for i, q := range bStream {
			pr3Queries[i] = joinWords(q.Words)
		}
	})
}

func BenchmarkPublicBroadMatch(b *testing.B) {
	pr3Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr3Index.BroadMatch(pr3Queries[i%len(pr3Queries)])
	}
}

// BenchmarkPublicBroadMatchAppendReuse is the zero-garbage serving loop: a
// caller-owned result buffer reused across queries.
func BenchmarkPublicBroadMatchAppendReuse(b *testing.B) {
	pr3Setup(b)
	var dst []Ad
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = pr3Index.View().BroadMatchAppend(dst[:0], pr3Queries[i%len(pr3Queries)])
	}
}

// BenchmarkPublicBroadMatchParallel exercises reader-side scaling: with
// snapshot reads there is no lock to contend on.
func BenchmarkPublicBroadMatchParallel(b *testing.B) {
	pr3Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []Ad
		i := 0
		for pb.Next() {
			dst = pr3Index.View().BroadMatchAppend(dst[:0], pr3Queries[i%len(pr3Queries)])
			i++
		}
	})
}

// Guard against accidental fixture skew: the three structures must agree
// on the bench stream (executed once under -bench via a cheap test).
func TestBenchFixturesAgree(t *testing.T) {
	initBenchFixtures()
	for i := 0; i < 200; i++ {
		q := streamQuery(i * 37)
		a := len(bCore.BroadMatch(q, nil))
		u := len(bUnmod.BroadMatch(q, nil))
		m := len(bMod.BroadMatch(q, nil))
		if a != u || a != m {
			t.Fatalf("fixtures disagree on %v: core=%d unmod=%d mod=%d", q, a, u, m)
		}
	}
}

package adindex

import (
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adindex/internal/adapt"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/durable"
	"adindex/internal/optimize"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
)

// Ad is one advertisement: a bid phrase plus advertiser metadata.
type Ad = corpus.Ad

// Meta is the advertiser metadata attached to an Ad.
type Meta = corpus.Meta

// CostModel parameterizes the random-vs-sequential memory cost model used
// by layout optimization.
type CostModel = costmodel.Model

// Counters accumulates per-query memory-access accounting (random
// accesses, bytes scanned, hash probes); set Query.Counters when
// instrumenting.
type Counters = costmodel.Counters

// NewAd builds an Ad from a raw bid phrase, normalizing it into the
// canonical word set used by matching (lowercased, duplicate occurrences
// folded, order-independent).
func NewAd(id uint64, phrase string, meta Meta) Ad {
	return corpus.NewAd(id, phrase, meta)
}

// Options configures an Index.
type Options struct {
	// MaxWords bounds data-node locator length: bid phrases with more
	// words are stored under shorter locators, which in turn bounds the
	// per-query subset enumeration. Default 10.
	MaxWords int
	// MaxQueryWords is the heuristic cutoff for extremely long queries;
	// longer queries are reduced to their rarest MaxQueryWords indexed
	// words (may lose matches on such extremes). Default 12.
	MaxQueryWords int
	// CostModel drives layout optimization. Zero value selects the
	// default (one random access ≈ 256 sequentially scanned bytes).
	CostModel CostModel
	// MaxObservedQueries bounds the distinct-query workload sample kept by
	// Observe. Live traffic has an unbounded tail of distinct word sets, so
	// without a cap the sample grows forever; at the cap, admitting a new
	// set evicts the lowest-frequency set from a small random sample (the
	// power-law head that Optimize cares about survives). Default
	// DefaultMaxObservedQueries; negative disables the cap.
	MaxObservedQueries int
	// MaxDeltaAds bounds the mutation overlay kept on top of the immutable
	// base snapshot. Inserts and deletes accumulate in a small
	// linearly-scanned delta; when it reaches this size the overlay is
	// folded into a fresh base (an O(corpus) rebuild amortized across that
	// many mutations). Default DefaultMaxDeltaAds; negative folds on every
	// mutation (no overlay, maximal per-mutation cost).
	MaxDeltaAds int
	// Rewrite enables approximate broad match (Query.Rewrite): fuzzy
	// spelling correction against the index vocabulary plus optional
	// synonym-class expansion, under a per-query budget. Nil disables
	// rewriting; exact matching is unaffected either way.
	Rewrite *RewriteOptions
	// Adapt configures the continuous adaptation control loop (AdaptRound
	// / StartAdapt). Nil uses defaults when the loop is invoked; the loop
	// never runs unless explicitly started.
	Adapt *AdaptOptions
}

// DefaultMaxObservedQueries is the default Options.MaxObservedQueries.
const DefaultMaxObservedQueries = 1_000_000

// DefaultMaxDeltaAds is the default Options.MaxDeltaAds.
const DefaultMaxDeltaAds = 256

func (o Options) maxObserved() int {
	if o.MaxObservedQueries == 0 {
		return DefaultMaxObservedQueries
	}
	if o.MaxObservedQueries < 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxObservedQueries
}

func (o Options) maxDeltaAds() int {
	if o.MaxDeltaAds == 0 {
		return DefaultMaxDeltaAds
	}
	if o.MaxDeltaAds < 0 {
		return 0
	}
	return o.MaxDeltaAds
}

func (o Options) coreOptions() core.Options {
	return core.Options{MaxWords: o.MaxWords, MaxQueryWords: o.MaxQueryWords}
}

func (o Options) model() costmodel.Model {
	if o.CostModel == (CostModel{}) {
		return costmodel.Default()
	}
	return o.CostModel
}

// Index is a thread-safe broad-match advertisement index.
//
// Reads are lock-free: every query loads the current immutable snapshot
// with a single atomic pointer load and never contends with mutators or
// other readers. Mutators (Insert, Delete, Optimize, ApplyMapping)
// serialize among themselves on a writer-only mutex and publish a new
// snapshot RCU-style; retired snapshots are reclaimed by the garbage
// collector once the last in-flight read drops them, which stands in for
// an explicit grace period.
type Index struct {
	opts Options

	// snap is the published snapshot. Readers Load it exactly once per
	// query; mutators Store a fresh snapshot while holding mu.
	snap atomic.Pointer[snapshot]
	// mu serializes mutators. Readers never acquire it.
	mu sync.Mutex
	// observed samples the query stream for workload adaptation, sharded
	// so recording never blocks queries (or other recorders).
	observed *observeSampler
	// rewriter plans approximate broad-match expansions; nil when
	// Options.Rewrite is unset. Immutable after construction.
	rewriter *rewrite.Planner

	// changed is the per-word version table behind View.ChangedAt, shared
	// by every snapshot; see noteChanged.
	changed wordVersions
	// folds and foldNanos count overlay folds and the time they took;
	// buildNanos is how long the last build of a base took, the start's
	// or a fold's.
	folds      atomic.Uint64
	foldNanos  atomic.Int64
	buildNanos atomic.Int64

	// remapEpoch counts placement changes (Optimize, ApplyMapping,
	// ApplyPlacement) — the staleness guard of the adaptation loop.
	remapEpoch atomic.Uint64
	// attr accumulates per-query cost attribution (RecordQueryCost) for
	// cost-model recalibration.
	attr core.CostAttribution
	// adaptCtl is the lazily-built continuous-adaptation controller;
	// adaptMu guards its construction and lifecycle.
	adaptMu  sync.Mutex
	adaptCtl *adapt.Controller

	// optimizeRebuildHook, when set, is invoked (without ix.mu held)
	// immediately before each Optimize rebuild attempt — after the fold
	// and cost computation, before the out-of-lock rebuild. Tests use it
	// to inject churn into the rebuild window. Set it before the index is
	// shared across goroutines.
	optimizeRebuildHook func(attempt int)

	// store, when non-nil, is the durable persistence backend: mutations
	// are WAL-logged before they apply (write-ahead, under ix.mu) and
	// Optimize/ApplyMapping write a full snapshot. Nil for the default
	// in-memory index. Set only during construction (OpenDurable).
	store *durable.Store
	// snapshotEvery triggers an automatic snapshot rotation once this
	// many WAL records accumulate; <= 0 disables auto-rotation.
	snapshotEvery int
	// persistFailure records the first persistence error (set once).
	// Mutations still apply in memory after a persistence failure so
	// serving continues, but durability is gone from that point on;
	// operators watch PersistErr via /metrics and restart.
	persistFailure atomic.Pointer[persistErrBox]
}

type persistErrBox struct{ err error }

func (ix *Index) notePersistErr(err error) {
	ix.persistFailure.CompareAndSwap(nil, &persistErrBox{err: err})
}

// PersistErr returns the first persistence failure (WAL append or
// snapshot write) encountered, or nil. Once non-nil the in-memory index
// is ahead of disk: acknowledged mutations after that point would not
// survive a crash.
func (ix *Index) PersistErr() error {
	if b := ix.persistFailure.Load(); b != nil {
		return b.err
	}
	return nil
}

// Epoch returns the index mutation epoch: a counter bumped by every
// Insert, Delete (found or not), Optimize, ApplyMapping and applied
// adaptation round; a fold republishes under the epoch it found. It names a
// published state — WAL recovery reproduces it record by record — and says
// nothing about which answers changed: most epochs leave most answers as
// they were. A result cache stamps an entry with the epoch of the View
// that computed it and asks View.ChangedAt whether that is new enough.
//
// Epoch is a single atomic load. For an epoch guaranteed consistent with
// subsequent query results, use View, which pins epoch and results to the
// same snapshot.
func (ix *Index) Epoch() uint64 {
	return ix.snap.Load().epoch
}

// wordSlots is the size of the word version table: 16 384 slots of eight
// bytes, 128 KB per index. Two words that share a slot invalidate each
// other's queries: extra misses, never a stale answer.
const wordSlots = 1 << 14

// wordVersions holds, per word-hash slot, the epoch of the last mutation
// that changed the answers of queries containing a word of that slot.
type wordVersions [wordSlots]atomic.Uint64

func wordSlot(w string) uint32 {
	h := core.WordSignatureHash(w)
	return uint32(h^h>>32) & (wordSlots - 1)
}

// noteChanged records that the mutation about to be published as epoch
// adds or removes a record with the canonical word set words. The match
// rule is words(P) ⊆ Q, so only queries containing every one of words can
// answer differently, and each of them contains the one word stamped here:
// the rarest by the base's document frequency (first in string order among
// equals), which is the word the fewest cached queries share. A record with
// no words matches no query and stamps nothing.
//
// Callers hold ix.mu and call this before publishing the snapshot: a reader
// that can see the mutation's snapshot can then see its stamp, and a
// mutator returns only after both, so a query that starts after the
// mutation returned finds the stamp (View.ChangedAt) whatever it finds in a
// cache. Epochs only grow under ix.mu, so a slot never moves backwards.
func (ix *Index) noteChanged(base *core.Index, words []string, epoch uint64) {
	if len(words) == 0 {
		return
	}
	rarest, df := words[0], base.WordDF(words[0])
	for _, w := range words[1:] {
		if d := base.WordDF(w); d < df {
			rarest, df = w, d
		}
	}
	ix.changed[wordSlot(rarest)].Store(epoch)
}

// fold folds s's overlay into a fresh base (snapshot.fold), counted and
// timed for FoldStats. Callers hold ix.mu.
func (ix *Index) fold(s *snapshot) *core.Index {
	start := time.Now()
	base := s.fold(ix.opts.coreOptions())
	ix.folds.Add(1)
	ix.foldNanos.Add(int64(ix.noteBuild(start)))
	return base
}

// noteBuild records a base build that began at start as the last one.
func (ix *Index) noteBuild(start time.Time) time.Duration {
	d := time.Since(start)
	ix.buildNanos.Store(int64(d))
	return d
}

// BuildSeconds returns how long the last build of a base took: the one
// the index started from (Build, or OpenDurable's from the corpus or the
// recovered snapshot), or the latest fold since.
func (ix *Index) BuildSeconds() float64 {
	return time.Duration(ix.buildNanos.Load()).Seconds()
}

// FoldStats returns how many overlay folds this index has run (WAL replay
// included) and the seconds they took in total. A fold rebuilds the whole
// base on the goroutine of the write that filled the overlay.
func (ix *Index) FoldStats() (folds uint64, seconds float64) {
	return ix.folds.Load(), time.Duration(ix.foldNanos.Load()).Seconds()
}

// New returns an empty index.
func New(opts Options) *Index {
	return Build(nil, opts)
}

// Build constructs an index over ads with the default placement (each
// distinct word set at its own data node; over-long phrases re-mapped).
func Build(ads []Ad, opts Options) *Index {
	ix := &Index{
		opts:     opts,
		observed: newObserveSampler(opts.maxObserved()),
		rewriter: opts.planner(),
	}
	start := time.Now()
	ix.publish(&snapshot{base: core.New(ads, opts.coreOptions())})
	ix.noteBuild(start)
	return ix
}

// publish installs s as the current snapshot. Callers must hold ix.mu
// (or be constructing the index). Snapshots that keep the previous base
// inherit its lazy vocabulary trie, so the rewrite frontier stays in
// lockstep with mutation epochs without rebuilding anything until the
// base itself is replaced.
func (ix *Index) publish(s *snapshot) {
	if s.bv == nil {
		if cur := ix.snap.Load(); cur != nil && cur.bv != nil && cur.base == s.base {
			s.bv = cur.bv
		} else {
			s.bv = &baseVocab{base: s.base}
		}
	}
	ix.snap.Store(s)
}

// Insert adds an advertisement. The ad lands in the snapshot's delta
// overlay (an atomic republish; no index rebuild) until the overlay
// reaches Options.MaxDeltaAds and is folded into a fresh base. Placement
// uses a fast local heuristic; call Optimize periodically to restore a
// globally good layout.
func (ix *Index) Insert(ad Ad) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store != nil {
		// Write-ahead: the record is on disk (fsync'd under SyncAlways)
		// before the mutation becomes visible to queries.
		if err := ix.store.LogInsert(ad); err != nil {
			ix.notePersistErr(err)
		}
	}
	ix.insertLocked(ad)
	ix.maybeAutoSnapshotLocked()
}

// insertLocked applies an insert to the published snapshot. Callers must
// hold ix.mu. WAL recovery replays records through this same path, so a
// recovered index is bit-for-bit the index the mutations built live
// (including the epoch, which advances once per record).
func (ix *Index) insertLocked(ad Ad) {
	s := ix.snap.Load()
	ix.noteChanged(s.base, ad.Words, s.epoch+1)
	if s.overlaySize() >= ix.opts.maxDeltaAds() {
		base := ix.fold(s)
		base.Insert(ad)
		ix.publish(&snapshot{base: base, epoch: s.epoch + 1})
		return
	}
	// Appending in place is safe: published snapshots hold delta slice
	// headers with the old length, so they never observe the new element,
	// and readers of the new snapshot synchronize through the atomic
	// pointer store below. deltaSigs is maintained in lockstep.
	ix.publish(&snapshot{
		base:      s.base,
		delta:     append(s.delta, ad),
		deltaSigs: append(s.deltaSigs, core.SetSignature(ad.Words)),
		tombs:     s.tombs,
		deleted:   s.deleted,
		epoch:     s.epoch + 1,
	})
}

// Delete removes the ad with the given ID and bid phrase, reporting
// whether it was found. Deletions against the immutable base become
// tombstones in the overlay; delta ads are removed directly.
func (ix *Index) Delete(id uint64, phrase string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store != nil {
		// Not-found deletes are logged too: they advance the epoch, and
		// recovery must reproduce the exact epoch sequence.
		if err := ix.store.LogDelete(id, phrase); err != nil {
			ix.notePersistErr(err)
		}
	}
	found := ix.deleteLocked(id, phrase)
	ix.maybeAutoSnapshotLocked()
	return found
}

// deleteLocked applies a delete to the published snapshot. Callers must
// hold ix.mu; see insertLocked for the recovery-replay contract.
func (ix *Index) deleteLocked(id uint64, phrase string) bool {
	s := ix.snap.Load()
	words := textnorm.WordSet(phrase)
	key := textnorm.SetKey(words)
	for i := len(s.delta) - 1; i >= 0; i-- {
		if s.delta[i].ID == id && s.delta[i].SetKey() == key {
			ix.noteChanged(s.base, words, s.epoch+1)
			nd := make([]corpus.Ad, 0, len(s.delta)-1)
			nd = append(nd, s.delta[:i]...)
			nd = append(nd, s.delta[i+1:]...)
			ns := make([]uint64, 0, len(s.deltaSigs)-1)
			ns = append(ns, s.deltaSigs[:i]...)
			ns = append(ns, s.deltaSigs[i+1:]...)
			ix.publish(&snapshot{
				base: s.base, delta: nd, deltaSigs: ns, tombs: s.tombs,
				deleted: s.deleted, epoch: s.epoch + 1,
			})
			return true
		}
	}
	k := tombKey{id: id, key: key}
	if s.base.Lookup(id, phrase) > s.tombs[k] {
		ix.noteChanged(s.base, words, s.epoch+1)
		nt := make(map[tombKey]int, len(s.tombs)+1)
		for tk, n := range s.tombs {
			nt[tk] = n
		}
		nt[k]++
		ix.publish(&snapshot{
			base: s.base, delta: s.delta, deltaSigs: s.deltaSigs, tombs: nt,
			deleted: s.deleted + 1, epoch: s.epoch + 1,
		})
		if len(nt) >= ix.opts.maxDeltaAds() {
			// Fold eagerly so tombstone filtering stays cheap.
			cur := ix.snap.Load()
			ix.publish(&snapshot{base: ix.fold(cur), epoch: cur.epoch})
		}
		return true
	}
	// Not found: no answer changed, so no word is stamped. The epoch still
	// advances, because the WAL logged the attempt and recovery reproduces
	// the epoch sequence record by record.
	ix.publish(&snapshot{
		base: s.base, delta: s.delta, deltaSigs: s.deltaSigs, tombs: s.tombs,
		deleted: s.deleted, epoch: s.epoch + 1,
	})
	return false
}

// Observe records one occurrence of query in the workload sample used by
// Optimize. Call it on (a sample of) live traffic. Recording goes through
// a sharded sampler and never blocks queries.
func (ix *Index) Observe(query string) {
	ix.observed.Observe(query)
}

// ObserveWords is Observe for a caller that already holds the query's
// canonical word set (textnorm.AppendWordSet): it records the same sample
// without tokenizing again. words is only read.
func (ix *Index) ObserveWords(words []string) {
	ix.observed.ObserveWords(words)
}

// ObservedQueries returns the number of distinct observed queries.
func (ix *Index) ObservedQueries() int {
	return ix.observed.Distinct()
}

// OptimizeReport describes the outcome of a re-optimization.
type OptimizeReport struct {
	// NodesBefore/NodesAfter are data-node counts before and after.
	NodesBefore, NodesAfter int
	// ModeledCostBefore/After are the expected workload node-access costs
	// under the cost model (hash lookups excluded; they are layout-
	// independent).
	ModeledCostBefore, ModeledCostAfter float64
	// DistinctQueries is the size of the workload sample used.
	DistinctQueries int
	// Applied reports whether the optimized layout was installed. It is
	// false only when concurrent churn outpaced every rebuild attempt and
	// the index kept its previous placement.
	Applied bool
	// Stale reports that the corpus changed while optimizing, so the
	// modeled costs and node counts above describe the pre-churn corpus
	// rather than the exact layout installed.
	Stale bool
	// Attempts is the number of rebuild attempts performed (> 1 means
	// concurrent mutations forced at least one retry).
	Attempts int
}

// maxOptimizeAttempts bounds how often Optimize and ApplyMapping retry the
// out-of-lock rebuild when concurrent mutations fold the base out from
// under it.
const maxOptimizeAttempts = 3

// Optimize recomputes the ad-to-node mapping against the observed workload
// (greedy weighted set cover under the cost model) and rebuilds the index
// under it. Query results are unaffected; only the physical layout
// changes. With no observed workload the default placement is kept.
//
// All heavy work (set cover, rebuild) runs outside the writer lock, and
// queries are lock-free throughout, so matching proceeds at full speed for
// the entire optimization (see remap). After maxOptimizeAttempts lost
// races with an overlay fold Optimize gives up, keeps the current
// placement, and reports Applied=false.
func (ix *Index) Optimize() (OptimizeReport, error) {
	wl := ix.observed.Workload()
	report := OptimizeReport{DistinctQueries: len(wl.Queries)}
	var res *optimize.Result
	installed, attempts, churned, err := ix.remap(maxOptimizeAttempts, nil,
		func(attempt int, base *core.Index, ads []corpus.Ad) map[string][]string {
			// On retries the mapping computed on attempt 1 is reused
			// against the live corpus: word sets inserted since then are
			// unknown to it and fall back to default placement until the
			// next Optimize.
			if attempt == 1 {
				gs := optimize.BuildGroups(ads, wl)
				opts := optimize.Options{MaxWords: ix.opts.coreOptions().MaxWords, Model: ix.opts.model()}
				res = optimize.Optimize(gs, opts)
				report.NodesBefore = base.NumNodes()
				report.ModeledCostBefore = optimize.EvaluateMapping(gs, base.Mapping(), opts)
				report.ModeledCostAfter = res.ModeledCost
			}
			return res.Mapping
		})
	if err != nil {
		return OptimizeReport{}, err
	}
	report.Applied = installed != nil
	report.Attempts = attempts
	report.Stale = churned
	if installed == nil {
		// Churn folded the base on every attempt: the index keeps its
		// current (stale) placement rather than stall mutators.
		installed = ix.snap.Load().base
	}
	report.NodesAfter = installed.NumNodes()
	return report, nil
}

// remap is the one rebuild-and-swap behind Optimize, ApplyPlacement and
// ApplyMapping. Each attempt folds the pending overlay under the writer
// lock (an equivalent-results layout change, republished under the epoch
// it found), asks plan for the mapping of the folded base, and rebuilds
// under it outside the lock. The rebuilt base is swapped in if the base it
// was built from is still current: concurrent Insert/Delete churn sits in
// the overlay and applies verbatim on top of the new layout (tombstones
// and delta are layout-independent), so only a concurrent fold (≥
// MaxDeltaAds mutations during the rebuild) costs another attempt.
//
// ifEpoch, when non-nil, is the remap epoch the caller planned against: it
// is checked before the fold and again before the swap, and a mismatch
// ends the call with nothing installed. An install bumps remapEpoch and,
// on a durable index, persists the placement as a full snapshot inside the
// swap's critical section — layout changes are not WAL-logged (the WAL
// holds logical mutations only). Mutators stall for that write; queries
// stay lock-free.
//
// installed is nil when the guard went stale or churn folded the base on
// every attempt. churned reports a retry, or a mutation between the first
// fold and the swap: what plan saw was not exactly what was installed.
func (ix *Index) remap(maxAttempts int, ifEpoch *uint64,
	plan func(attempt int, base *core.Index, ads []corpus.Ad) map[string][]string,
) (installed *core.Index, attempts int, churned bool, err error) {
	stale := func() bool { return ifEpoch != nil && ix.remapEpoch.Load() != *ifEpoch }
	var startEpoch uint64
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		ix.mu.Lock()
		if stale() {
			ix.mu.Unlock()
			return nil, attempt, true, nil
		}
		s := ix.foldLocked()
		ix.mu.Unlock()
		if attempt == 1 {
			startEpoch = s.epoch
		}

		ads := s.base.Ads()
		mapping := plan(attempt, s.base, ads)
		if hook := ix.optimizeRebuildHook; hook != nil {
			hook(attempt)
		}
		rebuilt, err := core.NewWithMapping(ads, mapping, ix.opts.coreOptions())
		if err != nil {
			return nil, attempt, false, err
		}

		ix.mu.Lock()
		if stale() {
			ix.mu.Unlock()
			return nil, attempt, true, nil
		}
		if cur := ix.snap.Load(); cur.base == s.base {
			ix.publish(&snapshot{
				base: rebuilt, delta: cur.delta, deltaSigs: cur.deltaSigs,
				tombs: cur.tombs, deleted: cur.deleted, epoch: cur.epoch + 1,
			})
			ix.remapEpoch.Add(1)
			ix.snapshotIfDurableLocked()
			ix.mu.Unlock()
			return rebuilt, attempt, attempt > 1 || cur.epoch != startEpoch, nil
		}
		ix.mu.Unlock()
	}
	return nil, maxAttempts, true, nil
}

// fixedPlan is the plan of a caller that arrives with its mapping.
func fixedPlan(mapping map[string][]string) func(int, *core.Index, []corpus.Ad) map[string][]string {
	return func(int, *core.Index, []corpus.Ad) map[string][]string { return mapping }
}

// ExportWorkload writes the observed query sample in the text format
// consumed by the offline optimizer (cmd/adopt): "freq<TAB>words" lines.
// Section VI of the paper recommends running re-optimization periodically
// on a separate machine; this is the hand-off.
func (ix *Index) ExportWorkload(w io.Writer) error {
	wl := ix.observed.Workload()
	sort.Slice(wl.Queries, func(i, j int) bool {
		if wl.Queries[i].Freq != wl.Queries[j].Freq {
			return wl.Queries[i].Freq > wl.Queries[j].Freq
		}
		return wl.Queries[i].Key() < wl.Queries[j].Key()
	})
	return wl.Write(w)
}

// ApplyMapping rebuilds the index under a mapping computed offline (see
// cmd/adopt and ExportWorkload). Query results are unaffected. The mapping
// must satisfy the validity conditions (each locator a subset of its word
// set, at most MaxWords long); entries for unknown word sets are ignored.
// Queries stay lock-free and mutators block only for the swap (see remap);
// it is an error if mutation churn outpaced maxOptimizeAttempts rebuilds.
func (ix *Index) ApplyMapping(r io.Reader) error {
	mapping, err := optimize.ReadMapping(r)
	if err != nil {
		return err
	}
	installed, _, _, err := ix.remap(maxOptimizeAttempts, nil, fixedPlan(mapping))
	if err == nil && installed == nil {
		err = errors.New("adindex: ApplyMapping: concurrent mutations folded the base under every rebuild")
	}
	return err
}

// snapshotIfDurableLocked writes the published state as a new snapshot
// generation when the index is durable. Callers must hold ix.mu: holding
// the writer lock across the capture and the write is what guarantees no
// concurrent mutation lands in the rotated-away WAL. Failures are
// recorded via notePersistErr, not returned — the in-memory state is
// already published.
func (ix *Index) snapshotIfDurableLocked() {
	if ix.store == nil {
		return
	}
	if err := ix.snapshotLocked(); err != nil {
		ix.notePersistErr(err)
	}
}

// snapshotLocked captures the published snapshot (ads, the base's node
// mapping, epoch) and writes it as a new durable generation, rotating
// the WAL. Callers must hold ix.mu.
func (ix *Index) snapshotLocked() error {
	s := ix.snap.Load()
	return ix.store.WriteSnapshot(s.materialize(), s.base.Mapping(), s.epoch)
}

// maybeAutoSnapshotLocked rotates the WAL into a fresh snapshot once
// enough records accumulate, bounding both recovery replay time and WAL
// growth. Callers must hold ix.mu.
func (ix *Index) maybeAutoSnapshotLocked() {
	if ix.store == nil || ix.snapshotEvery <= 0 {
		return
	}
	if ix.store.RecordsSinceSnapshot() >= ix.snapshotEvery {
		ix.snapshotIfDurableLocked()
	}
}

// Stats describes the physical structure of the index.
type Stats struct {
	NumAds       int
	NumNodes     int
	DistinctSets int
	NodeBytes    int
	MaxNodeAds   int
	AvgNodeAds   float64
}

// Stats returns structure statistics. A pending mutation overlay is folded
// into the base first (the fold changes layout, never results), so the
// numbers always describe the full live corpus.
func (ix *Index) Stats() Stats {
	s := ix.foldedBase().Stats()
	return Stats{
		NumAds:       s.NumAds,
		NumNodes:     s.NumNodes,
		DistinctSets: s.DistinctSets,
		NodeBytes:    s.NodeBytes,
		MaxNodeAds:   s.MaxNodeAds,
		AvgNodeAds:   s.AvgNodeAds,
	}
}

// NumAds returns the number of indexed advertisements, overlay included.
func (ix *Index) NumAds() int {
	s := ix.snap.Load()
	return s.base.NumAds() - s.deleted + len(s.delta)
}

// Ads returns a copy of all indexed advertisements ordered by ID. The
// copies do not alias index storage.
func (ix *Index) Ads() []Ad {
	ads := ix.snap.Load().materialize()
	deepCopyAdStrings(ads)
	return ads
}

// CheckInvariants folds any pending overlay and verifies the structural
// invariants of the resulting base index (node/locator consistency,
// max_words bounds, placement reachability). Expensive; meant for tests
// and the simulation harness, not production serving.
func (ix *Index) CheckInvariants() error {
	return ix.foldedBase().CheckInvariants()
}

// foldedBase folds any pending overlay and returns the resulting pure
// base. Queries remain lock-free while it runs.
func (ix *Index) foldedBase() *core.Index {
	s := ix.snap.Load()
	if s.overlaySize() == 0 {
		return s.base
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.foldLocked().base
}

// foldLocked folds any pending overlay into the base and returns the
// published snapshot. The fold is an equivalent-results layout change, so
// it is republished under the same epoch. Callers hold ix.mu.
func (ix *Index) foldLocked() *snapshot {
	s := ix.snap.Load()
	if s.overlaySize() > 0 {
		s = &snapshot{base: ix.fold(s), epoch: s.epoch}
		ix.publish(s)
	}
	return s
}

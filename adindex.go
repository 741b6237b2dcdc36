package adindex

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// MaxDeltaAds bounds the mutation overlay kept on top of the immutable
	// base snapshot. Inserts and deletes accumulate in a small
	// linearly-scanned delta; when it reaches this size the overlay is
	// folded into a fresh base (an O(corpus) rebuild amortized across that
	// many mutations). Default 256; negative folds on every mutation (no
	// overlay, maximal per-mutation cost).
	MaxDeltaAds int
	// Rewrite enables approximate broad match (Query.Rewrite): fuzzy
	// spelling correction against the index vocabulary plus optional
	// synonym-class expansion, under a per-query budget. Nil disables
	// rewriting; exact matching is unaffected either way.
	Rewrite *RewriteOptions
}

// maxObservedQueries bounds the distinct-query workload sample that
// Match feeds: 4 096 sets on each of its 16 shards. Live traffic has an
// unbounded tail of distinct word sets, so without a cap the sample would
// grow forever. Below the cap every count is exact; at the cap the sample
// is a Space-Saving top-k, where a new set takes the least counted set's
// slot and inherits its count as error. The power-law head that Optimize
// prices survives with counts off by at most a shard's occurrences over
// 4 096.
const maxObservedQueries = 65_536

// defaultMaxDeltaAds is the default Options.MaxDeltaAds.
const defaultMaxDeltaAds = 256

func (o Options) maxDeltaAds() int {
	if o.MaxDeltaAds == 0 {
		return defaultMaxDeltaAds
	}
	if o.MaxDeltaAds < 0 {
		return 0
	}
	return o.MaxDeltaAds
}

// coreOptions passes MaxWords alone: a served index walks every indexed
// word of a query (no MaxQueryWords cut).
func (o Options) coreOptions() core.Options {
	return core.Options{MaxWords: o.MaxWords}
}

// Index is a thread-safe broad-match advertisement index.
//
// Reads never wait on writers: every query loads the current immutable
// snapshot with a single atomic pointer load and never contends with
// mutators. The one lock a query takes is the workload sampler shard its
// word set hashes to, for one count update (View.Match). Mutators
// (Insert, Delete, Optimize, ApplyMapping) serialize among themselves on
// a writer-only mutex and publish a new snapshot RCU-style; retired snapshots are reclaimed by the garbage
// collector once the last in-flight read drops them, which stands in for
// an explicit grace period.
type Index struct {
	opts Options
	// model prices the plans of Optimize and the adaptation tick:
	// costmodel.Default(), the Section V-A model (one random access ≈ 256
	// sequentially scanned bytes). A test may set another before sharing
	// the index.
	model costmodel.Model

	// snap is the published snapshot. Readers Load it exactly once per
	// query; mutators Store a fresh snapshot while holding mu.
	snap atomic.Pointer[snapshot]
	// mu serializes mutators. Readers never acquire it.
	mu sync.Mutex
	// observed samples the queries Match answers for workload adaptation,
	// sharded so that recording rarely waits on another query.
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

	// remaps counts installed re-mappings (ApplyMapping, and the Optimize
	// calls and adaptation ticks that installed).
	remaps atomic.Uint64
	// adaptStop and adaptDone run the StartAdapt loop, guarded by adaptMu;
	// adaptSeen is the sampler's occurrence count at the last tick.
	adaptMu              sync.Mutex
	adaptStop, adaptDone chan struct{}
	adaptSeen            atomic.Uint64

	// installHook, when set, runs between a re-mapping's plan and its
	// install, without ix.mu held: tests land churn there. Set it before
	// the index is shared across goroutines.
	installHook func()

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
// Insert, Delete (found or not), ApplyMapping and installing Optimize or
// adaptation tick; a fold republishes under the epoch it found. It names a
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

// rebuildLocked is every whole-base build after the start: it builds the
// published snapshot's live corpus, and then extra, under mapping and
// publishes the result with an empty overlay at epoch. An overlay fold
// passes the base's own mapping and the epoch it publishes; a re-mapping
// install passes its new mapping and the next epoch. A bulk load is the
// index the same ads build one Insert at a time, so building an insert in
// is inserting it after the build. Callers hold ix.mu.
func (ix *Index) rebuildLocked(mapping map[string][]string, epoch uint64, extra ...corpus.Ad) (*snapshot, error) {
	base, err := core.NewFrozen(ix.snap.Load().live(extra...), mapping, ix.opts.coreOptions())
	if err != nil {
		return nil, err
	}
	s := &snapshot{base: base, epoch: epoch}
	ix.publish(s)
	return s, nil
}

// foldLocked folds the overlay, and then extra, into a fresh base under
// the base's own placement, published at epoch and counted and timed for
// FoldStats; word sets new to the base get default placement. The base's
// mapping is valid by construction, so a fold cannot fail. Callers hold
// ix.mu.
func (ix *Index) foldLocked(epoch uint64, extra ...corpus.Ad) {
	start := time.Now()
	if _, err := ix.rebuildLocked(ix.snap.Load().base.Mapping(), epoch, extra...); err != nil {
		panic("adindex: fold under the base's own mapping: " + err.Error())
	}
	ix.folds.Add(1)
	ix.foldNanos.Add(int64(ix.noteBuild(start)))
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

// Remaps returns how many re-mappings the index has installed: by
// ApplyMapping, or by an Optimize or adaptation tick that installed.
func (ix *Index) Remaps() uint64 { return ix.remaps.Load() }

// New returns an empty index.
func New(opts Options) *Index {
	return Build(nil, opts)
}

// Build constructs an index over ads with the default placement (each
// distinct word set at its own data node; over-long phrases re-mapped).
func Build(ads []Ad, opts Options) *Index {
	ix := newIndex(opts)
	start := time.Now()
	base, _ := core.NewFrozen(ads, nil, opts.coreOptions()) // no mapping, nothing to refuse
	ix.publish(&snapshot{base: base})
	ix.noteBuild(start)
	return ix
}

// Load builds an index over the corpus text r, in the format WriteAds
// writes, with one build: the text is parsed a block at a time straight
// into the loader's columns, and no []Ad of the corpus is ever held. A nil
// mapping is Build's default placement. Otherwise it is a mapping file, as
// ApplyMapping reads (cmd/adopt), that the index is built under, counted
// as one installed re-mapping (Remaps); its entries for word sets the
// corpus lacks are ignored, and an invalid locator for one it holds is an
// error.
func Load(r, mapping io.Reader, opts Options) (*Index, error) {
	var m map[string][]string
	if mapping != nil {
		var err error
		if m, err = optimize.ReadMapping(mapping); err != nil {
			return nil, err
		}
	}
	in, err := corpus.ReadColumns(r)
	if err != nil {
		return nil, err
	}
	// The reader's blocks, which its merge copied out of, are garbage as
	// large as the columns: collect them before the build allocates, so
	// that the heap grows from the columns alone.
	runtime.GC()
	ix := newIndex(opts)
	start := time.Now()
	base, err := core.LoadFrozen(in, m, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	ix.publish(&snapshot{base: base})
	ix.noteBuild(start)
	if m != nil {
		ix.remaps.Add(1)
	}
	return ix, nil
}

// newIndex returns an index with nothing published yet.
func newIndex(opts Options) *Index {
	return &Index{
		opts:     opts,
		model:    costmodel.Default(),
		observed: newObserveSampler(maxObservedQueries),
		rewriter: opts.planner(),
	}
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
		// A base is frozen: the ad joins the fold instead of the new base.
		ix.foldLocked(s.epoch+1, ad)
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
		tombIDs:   s.tombIDs,
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
				base: s.base, delta: nd, deltaSigs: ns, tombs: s.tombs, tombIDs: s.tombIDs,
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
		ids := make(map[uint64]struct{}, len(s.tombIDs)+1)
		for tid := range s.tombIDs {
			ids[tid] = struct{}{}
		}
		ids[id] = struct{}{}
		ix.publish(&snapshot{
			base: s.base, delta: s.delta, deltaSigs: s.deltaSigs, tombs: nt, tombIDs: ids,
			deleted: s.deleted + 1, epoch: s.epoch + 1,
		})
		if len(nt) >= ix.opts.maxDeltaAds() {
			// Fold eagerly so tombstone filtering stays cheap.
			ix.foldLocked(s.epoch + 1)
		}
		return true
	}
	// Not found: no answer changed, so no word is stamped. The epoch still
	// advances, because the WAL logged the attempt and recovery reproduces
	// the epoch sequence record by record.
	ix.publish(&snapshot{
		base: s.base, delta: s.delta, deltaSigs: s.deltaSigs, tombs: s.tombs, tombIDs: s.tombIDs,
		deleted: s.deleted, epoch: s.epoch + 1,
	})
	return false
}

// ObservedQueries returns the number of distinct query word sets in the
// workload sample: the queries Match has answered (View.Match).
func (ix *Index) ObservedQueries() int {
	return ix.observed.Distinct()
}

// ObservedBytes returns the memory the workload sample holds: its slot
// arrays, its hash tables and the bytes of its set keys. It stays bounded
// however many distinct queries are observed.
func (ix *Index) ObservedBytes() int {
	return ix.observed.Bytes()
}

// OptimizeReport describes the outcome of a re-optimization.
type OptimizeReport struct {
	// NodesBefore/NodesAfter are data-node counts before and after:
	// NodesBefore is the live mapping's over the corpus the plan saw,
	// NodesAfter the installed base's.
	NodesBefore, NodesAfter int
	// ModeledCostBefore/After are the expected workload node-access costs
	// under the cost model (hash lookups excluded; they are layout-
	// independent).
	ModeledCostBefore, ModeledCostAfter float64
	// DistinctQueries is the size of the workload sample used.
	DistinctQueries int
	// Installed reports that the plan gained enough to install; when false
	// nothing was built and the After numbers are the Before ones.
	Installed bool
	// Stale reports that the index mutated between the plan and its
	// install, so the modeled costs and NodesBefore describe the corpus the
	// plan saw rather than the one installed.
	Stale bool
}

// minRemapGain is the smallest modeled-cost reduction, as a fraction of the
// live mapping's cost, worth a rebuild.
const minRemapGain = 1e-4

// Optimize recomputes the ad-to-node mapping against the observed workload
// (greedy weighted set cover under the cost model) and rebuilds the index
// under it if that lowers the modeled cost by at least minRemapGain of the
// live mapping's. Query results are unaffected; only the physical layout
// changes. A smaller gain, or a live cost of 0 (no observed workload),
// installs nothing, and the report says so (Installed); a pending overlay
// is then left to its own fold. An install takes the overlay in.
//
// The plan, outside every lock, prices one published snapshot's live
// corpus, overlay included; an install is one build under the writer lock
// (see install). Queries never wait on either.
func (ix *Index) Optimize() (OptimizeReport, error) { return ix.remap() }

// remap is the one planned re-mapping, behind Optimize and the adaptation
// tick: plan, then the gain rule, then install.
func (ix *Index) remap() (OptimizeReport, error) {
	s := ix.snap.Load()
	wl := ix.observed.Workload()
	gs := optimize.BuildGroups(s.live(), wl)
	opts := optimize.Options{MaxWords: ix.opts.coreOptions().MaxWords, Model: ix.model}
	before, nodesBefore := optimize.EvaluateLocator(gs, s.base.Locator, opts)
	res := optimize.Optimize(gs, opts)
	rep := OptimizeReport{
		NodesBefore: nodesBefore, NodesAfter: nodesBefore,
		ModeledCostBefore: before, ModeledCostAfter: before,
		DistinctQueries: len(wl.Queries),
	}
	if before == 0 || before-res.ModeledCost < minRemapGain*before {
		return rep, nil
	}
	installed, err := ix.install(res.Mapping)
	if err != nil {
		return OptimizeReport{}, err
	}
	rep.NodesAfter = installed.base.NumNodes()
	rep.ModeledCostAfter = res.ModeledCost
	rep.Installed = true
	rep.Stale = installed.epoch != s.epoch+1
	return rep, nil
}

// install is the one installer, behind ApplyMapping and remap: one build
// of the live corpus under mapping, run under the writer lock, which is
// the overlay's fold and the re-placement at once (see rebuildLocked). It
// publishes at the next epoch with an empty overlay and bumps the remap
// count. Word sets the mapping does not name (inserted since the plan) get
// default placement.
//
// On a durable index the install persists the placement as a full
// snapshot in the same critical section — layout changes are not
// WAL-logged (the WAL holds logical mutations only). Mutators wait for the
// build and the write, as they wait for a fold; queries never wait on
// either. An invalid mapping installs nothing.
func (ix *Index) install(mapping map[string][]string) (*snapshot, error) {
	if ix.installHook != nil {
		ix.installHook()
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s, err := ix.rebuildLocked(mapping, ix.snap.Load().epoch+1)
	if err != nil {
		return nil, err
	}
	ix.remaps.Add(1)
	ix.snapshotIfDurableLocked()
	return s, nil
}

// ApplyMapping rebuilds the index under a mapping computed offline (see
// cmd/adopt). Query results are unaffected. The mapping
// must satisfy the validity conditions (each locator a subset of its word
// set, at most MaxWords long); entries for unknown word sets are ignored.
// Queries never wait on the rebuild; mutators wait for it (see install).
func (ix *Index) ApplyMapping(r io.Reader) error {
	mapping, err := optimize.ReadMapping(r)
	if err != nil {
		return err
	}
	_, err = ix.install(mapping)
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

// Stats describes the index: its live ad count, its base's structure and
// the size of the overlay beside that base.
type Stats struct {
	NumAds       int
	NumNodes     int
	DistinctSets int
	NodeBytes    int
	MaxNodeAds   int
	AvgNodeAds   float64
	Overlay      int // delta ads plus tombstones, until the next fold or install
}

// Stats describes the published snapshot as it stands: it folds nothing
// and takes no lock. NumAds is the live count (NumAds); the rest but
// Overlay describe the base.
func (ix *Index) Stats() Stats {
	s := ix.snap.Load()
	b := s.base.Stats()
	return Stats{
		NumAds:       s.numAds(),
		NumNodes:     b.NumNodes,
		DistinctSets: b.DistinctSets,
		NodeBytes:    b.NodeBytes,
		MaxNodeAds:   b.MaxNodeAds,
		AvgNodeAds:   b.AvgNodeAds,
		Overlay:      s.overlaySize(),
	}
}

// IndexBytes is the memory a base index holds, by column.
type IndexBytes = core.ByteStats

// IndexBytes returns the memory the current base index holds, by column.
// Like Stats it reads the published base as it stands, and the overlay (at
// most MaxDeltaAds ads) is not counted.
func (ix *Index) IndexBytes() IndexBytes {
	return ix.snap.Load().base.Stats().Bytes
}

// OffHeapBytes returns the bytes of index memory mapped outside the Go
// heap, process-wide: every base keeps its record columns, word IDs, nodes
// and probe table in one mapped region, unmapped once the collector finds
// the base unreachable (a fold or re-mapping retires it). The heap goal
// and this sum to about what the process holds. 0 off Linux, where the
// regions are heap memory.
func OffHeapBytes() int64 { return core.OffHeapBytes() }

// NumAds returns the number of indexed advertisements, overlay included.
func (ix *Index) NumAds() int {
	return ix.snap.Load().numAds()
}

// Ads returns a copy of all indexed advertisements ordered by ID. The
// copies do not alias index storage.
func (ix *Index) Ads() []Ad {
	ads := ix.snap.Load().materialize()
	deepCopyAdStrings(ads)
	return ads
}

// CheckInvariants verifies the published snapshot as it stands, folding
// nothing and taking no lock: the structural invariants of its base
// (node/locator consistency, max_words bounds, placement reachability),
// then its overlay against that base. Expensive; meant for tests and the
// simulation harness, not production serving.
func (ix *Index) CheckInvariants() error {
	s := ix.snap.Load()
	if err := s.base.CheckInvariants(); err != nil {
		return err
	}
	return s.checkOverlay()
}

// checkOverlay verifies that every delta signature is its ad's word set's,
// that every tombstone suppresses at least one and at most as many records
// as the base holds under its ID and word set, that tombIDs holds exactly
// their IDs, and that deleted is their total.
func (s *snapshot) checkOverlay() error {
	if len(s.deltaSigs) != len(s.delta) {
		return fmt.Errorf("adindex: %d delta signatures for %d delta ads", len(s.deltaSigs), len(s.delta))
	}
	for i := range s.delta {
		if s.deltaSigs[i] != core.SetSignature(s.delta[i].Words) {
			return fmt.Errorf("adindex: delta ad %d has a stale signature", s.delta[i].ID)
		}
	}
	total := 0
	ids := make(map[uint64]struct{}, len(s.tombIDs))
	for k, n := range s.tombs {
		phrase := strings.ReplaceAll(k.key, "\x1f", " ")
		if held := s.base.Lookup(k.id, phrase); n < 1 || n > held {
			return fmt.Errorf("adindex: tombstone of ad %d %q suppresses %d of %d records", k.id, phrase, n, held)
		}
		if _, ok := s.tombIDs[k.id]; !ok {
			return fmt.Errorf("adindex: tombstone of ad %d is missing from the tombstoned IDs", k.id)
		}
		ids[k.id] = struct{}{}
		total += n
	}
	if len(ids) != len(s.tombIDs) {
		return fmt.Errorf("adindex: %d tombstoned IDs for tombstones on %d", len(s.tombIDs), len(ids))
	}
	if s.deleted != total {
		return fmt.Errorf("adindex: %d deletions counted, tombstones suppress %d", s.deleted, total)
	}
	return nil
}

package adindex

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
)

// snapshot is one immutable published state of the index: a base
// core.Index plus a small mutation overlay (appended ads and base
// tombstones) and the epoch at which it was published. Readers obtain a
// snapshot with one atomic load and may use it indefinitely; no field is
// ever mutated after publication (Insert appends into spare delta
// capacity beyond every published length, which published readers cannot
// observe).
type snapshot struct {
	base *core.Index
	// delta holds ads inserted since base was built, scanned linearly at
	// query time. Bounded by Options.MaxDeltaAds.
	delta []corpus.Ad
	// deltaSigs[i] is the word-set signature of delta[i] (computed once at
	// insert), so the overlay scan gets the same branch-free signature
	// reject as the columnar base nodes.
	deltaSigs []uint64
	// tombs suppresses base records deleted since base was built, keyed by
	// (ID, canonical word-set key) with the number of deletions per key
	// (duplicate records are deleted one at a time, like core.Delete).
	tombs map[tombKey]int
	// deleted is the total count of base records suppressed by tombs.
	deleted int
	epoch   uint64

	// bv is the shared lazy vocabulary trie of this snapshot's base,
	// attached by publish and inherited by every snapshot published on the
	// same base, so the trie is built at most once per fold/rebuild.
	bv *baseVocab
	// vocab is this snapshot's lazily computed live word universe (the
	// base trie adjusted for overlay inserts and tombstones), guarded by
	// vocabOnce. Only the rewrite path touches it.
	vocabOnce sync.Once
	vocab     *rewrite.Vocabulary
}

// tombKey identifies a deleted base record: core deletion semantics match
// on ad ID plus canonical word set, not the raw phrase string.
type tombKey struct {
	id  uint64
	key string
}

// overlaySize measures how much mutation state rides on top of the base,
// for the fold threshold.
func (s *snapshot) overlaySize() int {
	return len(s.delta) + len(s.tombs)
}

// live returns the full live corpus — base ads minus tombstoned records
// plus delta ads — in no particular order, which is all a rebuild needs:
// the loader orders its input itself; extra ads follow it. The ad structs
// are copies but their Words/Exclusions still alias (immutable) snapshot
// storage.
func (s *snapshot) live(extra ...corpus.Ad) []corpus.Ad {
	ads := s.base.AppendAds(make([]corpus.Ad, 0, s.base.NumAds()+len(s.delta)+len(extra)))
	if len(s.tombs) > 0 {
		used := make(map[tombKey]int, len(s.tombs))
		w := 0
		for i := range ads {
			k := tombKey{id: ads[i].ID, key: ads[i].SetKey()}
			if t := s.tombs[k]; t > 0 && used[k] < t {
				used[k]++
				continue
			}
			ads[w] = ads[i]
			w++
		}
		ads = ads[:w]
	}
	return append(append(ads, s.delta...), extra...)
}

// materialize returns the live corpus ordered by ID, ads of one ID in the
// order live has them (base before delta): what a snapshot file and Ads
// hold. The IDs are sorted apart from the ads and the ads then moved once;
// an Ad is 120 bytes, and sorting them in place moves each log n times.
func (s *snapshot) materialize() []corpus.Ad {
	ads := s.live()
	type slot struct {
		id uint64
		at int32
	}
	slots := make([]slot, len(ads))
	for i := range ads {
		slots[i] = slot{ads[i].ID, int32(i)}
	}
	slices.SortFunc(slots, func(a, b slot) int {
		if a.id != b.id {
			return cmp.Compare(a.id, b.id)
		}
		return cmp.Compare(a.at, b.at)
	})
	out := make([]corpus.Ad, len(ads))
	for i, sl := range slots {
		out[i] = ads[sl.at]
	}
	return out
}

// An answer is a list of core.Refs: a Ref below deltaRef is a record of
// the base, and deltaRef+i is the delta ad s.delta[i].
const deltaRef = core.Ref(core.MaxRecords)

// id returns the ad ID of the answer's record r.
func (s *snapshot) id(r core.Ref) uint64 {
	if r >= deltaRef {
		return s.delta[r-deltaRef].ID
	}
	return s.base.ID(r)
}

// appendMatch is the one match routine every query runs: it appends the
// records that match the query under typ to dst — the base retrieval,
// minus tombstoned base records, plus a linear scan of the delta —
// ordered by ID within the appended segment. queryWords is the query's
// canonical word set; tokens is its ordered token sequence for the
// order-sensitive types (duplicate-folded for Exact, as tokenized for
// Phrase) and unused for Broad. Section III-B: the types share the
// lookups and differ in the node-side test, so Broad and Phrase run the
// same subset walk and Exact is the single lookup of the query's own
// word set, which has nothing to cut off or to budget.
//
// counters and b are both optional: a non-nil budget is charged per probe
// and per scanned record by the base walk, which stops at node
// granularity once it is exhausted; the delta (bounded by MaxDeltaAds) is
// charged as one unit of its length and always scanned whole, so freshly
// inserted ads stay visible even in truncated answers. The Refs name
// snapshot storage; public entry points copy them out (appendAdCopies)
// before returning.
func (s *snapshot) appendMatch(dst []core.Ref, typ QueryType, tokens, queryWords []string, counters *costmodel.Counters, sc *core.Scratch, b *core.Budget) []core.Ref {
	mark := len(dst)
	switch typ {
	case Exact:
		dst = s.base.AppendExactRefs(dst, tokens, queryWords, counters, sc)
		b = nil
	case Phrase:
		dst = s.base.AppendPhraseRefs(dst, tokens, queryWords, counters, sc, b)
	default:
		dst = s.base.AppendBroadRefs(dst, queryWords, counters, sc, b)
	}
	if len(s.tombs) > 0 {
		dst = s.filterTombs(dst, mark, counters)
	}
	if len(s.delta) > 0 {
		if b != nil {
			b.Charge(int64(len(s.delta)))
		}
		n := len(dst)
		// The delta is scanned with the raw canonical query words: the
		// base prepares queries against its own vocabulary, which may lack
		// delta-only words. The signature column computed at insert time
		// rejects most overlay ads on one 64-bit compare, mirroring the
		// columnar base scan (and its accounting).
		qsig := core.SetSignature(queryWords)
		for i := range s.delta {
			if s.deltaSigs[i]&^qsig != 0 {
				if counters != nil {
					counters.SignatureChecks++
					counters.SignatureRejects++
					counters.BytesScanned += 8
				}
				continue
			}
			rec := &s.delta[i]
			if counters != nil {
				counters.SignatureChecks++
				counters.PhrasesChecked++
				counters.BytesScanned += int64(rec.Size())
			}
			// A record with no words (a phrase of punctuation) matches no
			// query in the base, which enumerates non-empty subsets only;
			// the overlay agrees rather than calling ∅ a subset of all.
			if len(rec.Words) > 0 && len(rec.Words) <= len(queryWords) && textnorm.IsSubset(rec.Words, queryWords) && orderedMatch(typ, tokens, rec.Phrase) {
				dst = append(dst, deltaRef+core.Ref(i))
			}
		}
		if len(dst) > n {
			if counters != nil {
				counters.Matches += int64(len(dst) - n)
			}
			slices.SortFunc(dst[mark:], func(a, b core.Ref) int { return cmp.Compare(s.id(a), s.id(b)) })
		}
	}
	return dst
}

// orderedMatch is the order-sensitive part of the match test, applied to a
// record whose word set is already known to be a subset of the query's:
// Exact wants the bid phrase to equal the query as a folded token
// sequence, Phrase wants it to occur in the query contiguously, Broad
// wants nothing more.
func orderedMatch(typ QueryType, tokens []string, phrase string) bool {
	switch typ {
	case Exact:
		return slices.Equal(textnorm.FoldDuplicates(textnorm.Tokenize(phrase)), tokens)
	case Phrase:
		return textnorm.ContainsContiguous(tokens, textnorm.Tokenize(phrase))
	}
	return true
}

// filterTombs removes tombstoned base records from dst[mark:] in place,
// honoring per-key deletion counts (a key deleted twice suppresses two of
// its duplicate records).
func (s *snapshot) filterTombs(dst []core.Ref, mark int, counters *costmodel.Counters) []core.Ref {
	var used map[tombKey]int
	w := mark
	for _, m := range dst[mark:] {
		k := tombKey{id: s.base.ID(m), key: s.base.SetKey(m)}
		if t := s.tombs[k]; t > 0 {
			if used == nil {
				used = make(map[tombKey]int, len(s.tombs))
			}
			if used[k] < t {
				used[k]++
				if counters != nil {
					counters.Matches--
				}
				continue
			}
		}
		dst[w] = m
		w++
	}
	return dst[:w]
}

// queryScratch bundles the per-query buffers of the hot path: the
// canonical query word set, the core enumeration scratch, and the records
// of the answer. Instances are pooled so a steady-state query performs no
// buffer allocations.
type queryScratch struct {
	words []string
	// tokens is the query's token sequence, for Exact and Phrase.
	tokens []string
	core   core.Scratch
	refs   []core.Ref
	// budget is the per-query cost budget, kept here so charging a query
	// allocates nothing.
	budget core.Budget
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch {
	return scratchPool.Get().(*queryScratch)
}

// putScratch returns sc to the pool with every reference into snapshot (or
// caller) storage cleared, so a pooled scratch never pins a retired
// snapshot's memory or a caller's closure.
func putScratch(sc *queryScratch) {
	clear(sc.words[:cap(sc.words)])
	sc.words = sc.words[:0]
	clear(sc.tokens[:cap(sc.tokens)])
	sc.tokens = sc.tokens[:0]
	sc.core.Reset()
	sc.refs = sc.refs[:0]
	sc.budget = core.Budget{} // drops the caller's clock func
	scratchPool.Put(sc)
}

// appendAdCopies appends copies of the ads of refs, an answer of s, to
// dst: the base records' ads are built here from the index's columns, the
// only ads a query builds. All Words and Exclusions slices of the appended
// ads share a single string arena, so the whole copy costs one allocation
// beyond dst's growth regardless of match count, and no returned slice
// aliases index-internal storage (the strings themselves are immutable).
// With no refs dst is returned untouched (nil stays nil).
func appendAdCopies(dst []Ad, s *snapshot, refs []core.Ref) []Ad {
	if len(refs) == 0 {
		return dst
	}
	need := 0
	for _, r := range refs {
		if r < deltaRef {
			need += s.base.AdStrings(r)
		} else {
			m := &s.delta[r-deltaRef]
			need += len(m.Words) + len(m.Meta.Exclusions)
		}
	}
	arena := make([]string, 0, need)
	dst = slices.Grow(dst, len(refs))
	for _, r := range refs {
		if r < deltaRef {
			dst, arena = s.base.AppendAd(dst, arena, r)
		} else {
			dst, arena = appendAdCopy(dst, arena, &s.delta[r-deltaRef])
		}
	}
	return dst
}

// appendAdCopy appends a copy of m whose Words and Exclusions live in
// arena, and returns both extended.
func appendAdCopy(dst []Ad, arena []string, m *corpus.Ad) ([]Ad, []string) {
	dst = append(dst, *m)
	ad := &dst[len(dst)-1]
	arena, ad.Words = appendArena(arena, m.Words)
	arena, ad.Meta.Exclusions = appendArena(arena, m.Meta.Exclusions)
	return dst, arena
}

// appendArena copies src into the arena and returns the arena plus a
// full-capacity-clipped view of the copy. The arena must have been sized
// up front: growth here would move earlier views to a stale array.
func appendArena(arena, src []string) ([]string, []string) {
	if len(src) == 0 {
		return arena, nil
	}
	mark := len(arena)
	arena = append(arena, src...)
	return arena, arena[mark:len(arena):len(arena)]
}

// deepCopyAdStrings rebinds every Words/Exclusions slice in ads to a fresh
// shared arena so the ads no longer alias index storage.
func deepCopyAdStrings(ads []Ad) {
	need := 0
	for i := range ads {
		need += len(ads[i].Words) + len(ads[i].Meta.Exclusions)
	}
	arena := make([]string, 0, need)
	for i := range ads {
		arena, ads[i].Words = appendArena(arena, ads[i].Words)
		arena, ads[i].Meta.Exclusions = appendArena(arena, ads[i].Meta.Exclusions)
	}
}

// View is a consistent, immutable read-only view of the index: every query
// on a View runs against the same snapshot, and Epoch identifies exactly
// that snapshot. A result cache obtains one View per request, stamps what
// it computes on it with its Epoch, and serves a stored entry only when the
// stamp is at least ChangedAt of the query's words. A View remains valid
// indefinitely; it simply pins one generation's memory. Obtain Views from
// Index.View — the zero View is not usable.
type View struct {
	s *snapshot
	// rw is the index's rewrite planner (nil when rewriting is disabled);
	// carried on the View so a rewritten Match needs no Index reference.
	rw *rewrite.Planner
	// changed is the index's word version table and observed its workload
	// sample: the things a View touches that are not pinned to its
	// snapshot.
	changed  *wordVersions
	observed *observeSampler
}

// View returns a consistent view of the index's current state. It is a
// single atomic load and never blocks.
func (ix *Index) View() View {
	return View{s: ix.snap.Load(), rw: ix.rewriter, changed: &ix.changed, observed: ix.observed}
}

// Epoch returns the mutation epoch of the viewed snapshot.
func (v View) Epoch() uint64 { return v.s.epoch }

// ChangedAt returns an epoch no older than the last mutation that could
// have changed the answer to a query with the canonical word set words. An
// answer computed on a View whose Epoch is at least ChangedAt(words)
// reflects every such mutation that had returned when ChangedAt was
// called, and may be served in place of a fresh one. It is the highest
// version among the words' slots of the index's word version table
// (Index.noteChanged: an insert or a found delete of word set W stamps one
// word of W, which every query containing W contains). Not-found deletes,
// folds, Optimize, ApplyMapping and adaptation ticks change no answer and
// stamp nothing, whatever they do to Epoch. Slots are shared between
// words, so the value can be newer than necessary, never older.
//
// The exception is a query long enough for the long-query cutoff, which
// keeps only the rarest 12 indexed words of a longer query
// (Result.CutoffApplied says whether it did): its answer depends on
// document frequencies, which any mutation moves. For it ChangedAt is the view's own epoch: nothing
// older than this View will do.
//
// The table is the index's, not the snapshot's: a View obtained before a
// mutation reports that mutation once it has stamped.
func (v View) ChangedAt(words []string) uint64 {
	if len(words) > v.s.base.Options().MaxQueryWords {
		return v.s.epoch
	}
	var at uint64
	for _, w := range words {
		if e := v.changed[wordSlot(w)].Load(); e > at {
			at = e
		}
	}
	return at
}

// QueryType selects which ads a Query retrieves. Every type runs the same
// retrieval; they differ only in the test a candidate must pass.
type QueryType uint8

const (
	// Broad matches every ad whose bid words all occur in the query.
	Broad QueryType = iota
	// Exact matches ads whose bid phrase equals the query as a normalized
	// token sequence.
	Exact
	// Phrase matches ads whose bid phrase occurs in the query as a
	// contiguous, ordered token subsequence.
	Phrase
)

// QueryBudget bounds the work one query may perform: MaxCost in index
// cost units (subset probes plus records scanned; zero means unlimited)
// and an optional wall-clock Deadline. Now is the clock used for deadline
// checks (nil = time.Now); tests inject a fake clock.
//
// The budget check is cooperative and cheap — a counter compare at node
// granularity, no context.Context anywhere near the inner loop — so a
// budgeted query costs the same as an unbudgeted one until it trips.
type QueryBudget struct {
	MaxCost  int64
	Deadline time.Time
	Now      func() time.Time
}

// Query is one retrieval request. The zero value of every field but Text
// selects the plain behaviour: broad match, no bound, no rewriting, no
// accounting.
type Query struct {
	Text string
	Type QueryType
	// Budget bounds the index work; the zero budget is unlimited. It
	// applies to the subset walk of Broad and Phrase queries; an Exact
	// query is a single lookup, which is never truncated or cut off.
	Budget QueryBudget
	// Rewrite adds approximate broad match: after the query's own word
	// set, the planner's rewrite variants (synonym substitutions, then
	// spelling corrections by edit distance) are probed in plan order
	// under the same Budget. It applies to Type Broad on an index built
	// with Options.Rewrite; otherwise only the query itself is probed.
	Rewrite bool
	// Counters, when non-nil, accumulates the query's memory-access
	// accounting.
	Counters *Counters
}

// Result is the outcome of a Match. A truncated result is never wrong,
// only incomplete: every returned ad is a fully verified match and the
// appended segment is ID-ordered, so it is a sub-multiset of the full
// answer.
type Result struct {
	// Ads is dst extended by copies of the matching ads, ordered by ID
	// within the appended segment.
	Ads []Ad
	// Infos is set by rewritten queries only: Infos[i] tells how the i-th
	// appended ad was reached. An ad reachable through several variants
	// is reported once, under the first (lowest-penalty) one.
	Infos []MatchInfo
	// Truncated reports that the budget (cost or deadline) ran out before
	// the retrieval completed.
	Truncated bool
	// CutoffApplied reports that the query had more than 12 indexed words
	// (the long-query cutoff) and was reduced to its rarest 12.
	CutoffApplied bool
	// CostSpent is the cost units the query charged.
	CostSpent int64
	// Rewrite reports the expansion work of a rewritten query.
	Rewrite RewriteStats
}

// Matches pairs the ads a rewritten query appended with their infos.
func (r Result) Matches() []Match {
	ads := r.Ads[len(r.Ads)-len(r.Infos):]
	out := make([]Match, len(ads))
	for i := range ads {
		out[i] = Match{Ad: ads[i], Info: r.Infos[i]}
	}
	return out
}

// Match answers q against the viewed snapshot, appending copies of the
// matching ads to dst. Reusing dst across calls keeps a query at a single
// allocation (the string arena backing the copies). Every query Match
// answers is recorded, as its canonical word set, in the index's workload
// sample, which Optimize and the adaptation ticks plan against (§V): a
// caller that answers a query without the index (a result cache hit)
// costs the index nothing and is not sampled.
func (v View) Match(dst []Ad, q Query) Result {
	sc := getScratch()
	sc.budget = core.Budget{MaxCost: q.Budget.MaxCost, Deadline: q.Budget.Deadline, Now: q.Budget.Now}
	sc.words = textnorm.AppendWordSet(sc.words[:0], q.Text)
	v.observed.ObserveWords(sc.words)
	var res Result
	if q.Rewrite && q.Type == Broad {
		res.Infos, res.Rewrite = v.matchRewrite(sc, q.Counters)
	} else {
		var tokens []string
		if q.Type != Broad {
			sc.tokens = textnorm.AppendTokens(sc.tokens[:0], q.Text)
			tokens = sc.tokens
			if q.Type == Exact {
				tokens = textnorm.Folded(tokens)
			}
		}
		sc.refs = v.s.appendMatch(sc.refs[:0], q.Type, tokens, sc.words, q.Counters, &sc.core, &sc.budget)
	}
	res.Ads = appendAdCopies(dst, v.s, sc.refs)
	res.Truncated = sc.budget.Exhausted()
	res.CutoffApplied = sc.budget.CutoffApplied()
	res.CostSpent = sc.budget.Spent()
	putScratch(sc)
	return res
}

// BroadMatch returns copies of all ads whose bid phrases broad-match the
// query (every bid word occurs in the query), ordered by ID; nil when
// nothing matches.
func (v View) BroadMatch(query string) []Ad {
	return v.Match(nil, Query{Text: query}).Ads
}

// BroadMatchAppend is BroadMatch appending into dst.
func (v View) BroadMatchAppend(dst []Ad, query string) []Ad {
	return v.Match(dst, Query{Text: query}).Ads
}

// Match answers q against the current snapshot; see View.Match. The read
// never waits on a writer: one atomic snapshot load, and no lock but the
// sampler shard's.
func (ix *Index) Match(dst []Ad, q Query) Result {
	return ix.View().Match(dst, q)
}

// BroadMatch is View.BroadMatch on the current snapshot.
func (ix *Index) BroadMatch(query string) []Ad {
	return ix.View().BroadMatch(query)
}

package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/hashindex"
	"adindex/internal/multiserver"
	"adindex/internal/optimize"
	"adindex/internal/rewrite"
	"adindex/internal/shard"
)

// Failure is one oracle divergence (or in-run harness error): the op
// that exposed it, the target that diverged, and a deterministic detail
// string. Identical seeds produce identical Failures.
type Failure struct {
	OpIndex int    `json:"op_index"`
	Target  string `json:"target"` // "plain", "auction", "budget", "durable", "compressed", "net", "cached", "state"
	Detail  string `json:"detail"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("op %d (%s): %s", f.OpIndex, f.Target, f.Detail)
}

// Result is the outcome of one run.
type Result struct {
	Schedule  Schedule
	Checks    int // oracle comparisons performed
	Truncated int // budgeted queries that exhausted their cost budget
	// Bounded counts unbudgeted answers flagged truncated: the walk bound
	// (core.Budget), which only a query of more than 12 indexed words can
	// reach, stopped them.
	Bounded  int
	Survived int // cached target: re-asked queries still served from the cache after a write
	Failure  *Failure
}

// Verdict is the one-line deterministic outcome (identical across runs
// of the same seed — the determinism tests compare it byte-for-byte).
func (r *Result) Verdict() string {
	if r.Failure == nil {
		return fmt.Sprintf("pass: %d ops, %d checks", len(r.Schedule.Ops), r.Checks)
	}
	return "FAIL at " + r.Failure.Error()
}

// Run generates the schedule for cfg and executes it.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunSchedule(cfg, Generate(cfg))
}

// RunSchedule executes sched against every target cfg enables, checking
// each query against the oracle. The returned error is a harness setup
// problem (e.g. a listen failure); divergences land in Result.Failure.
func RunSchedule(cfg Config, sched Schedule) (*Result, error) {
	cfg = cfg.withDefaults()
	r := &runner{cfg: cfg, rw: rewritePlanner(cfg)}
	r.plain = adindex.New(indexOptions(cfg))
	if cfg.Durable {
		d, err := newDurTarget(cfg)
		if err != nil {
			return nil, err
		}
		r.dur = d
		defer d.close()
	}
	if cfg.Net {
		e, err := newElasticTarget(cfg)
		if err != nil {
			return nil, err
		}
		r.net = e
		defer e.close()
	}
	if cfg.Cached {
		c, err := newCachedTarget(cfg)
		if err != nil {
			return nil, err
		}
		r.cached = c
	}
	defer r.cached.close()

	res := &Result{Schedule: sched}
	for i := range sched.Ops {
		if f := r.apply(i, &sched.Ops[i]); f != nil {
			res.Failure = f
			break
		}
		if cfg.CheckEvery > 0 && (i+1)%cfg.CheckEvery == 0 {
			if f := r.checkState(i); f != nil {
				res.Failure = f
				break
			}
		}
	}
	if res.Failure == nil && len(sched.Ops) > 0 {
		res.Failure = r.checkState(len(sched.Ops) - 1)
	}
	res.Checks = r.checks
	res.Truncated, res.Bounded = r.truncated, r.bounded
	if r.cached != nil {
		res.Checks += r.cached.checks
		res.Survived = r.cached.survived
		res.Bounded += r.cached.bounded
	}
	return res, nil
}

type runner struct {
	cfg       Config
	oracle    model
	rw        *rewrite.Planner // oracle-side planner, nil unless cfg.Rewrite
	plain     *adindex.Index
	dur       *durTarget
	net       *elasticTarget
	cached    *cachedTarget
	checks    int
	truncated int
	bounded   int // see Result.Bounded
	// plainInstalls and durInstalls count each twin's installing Optimize
	// calls: each installs where its own sample gains (a crash-restart
	// empties the durable one's).
	plainInstalls, durInstalls uint64
}

func (r *runner) apply(i int, op *Op) *Failure {
	fail := func(target, format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: target, Detail: fmt.Sprintf(format, args...)}
	}
	switch op.Kind {
	case OpInsert:
		if op.Ad == nil {
			return nil
		}
		if d := r.insertEverywhere(*op.Ad); d != "" {
			return fail("cached", "%s", d)
		}
	case OpDelete:
		want := r.oracle.remove(op.ID, op.Phrase)
		if got := r.plain.Delete(op.ID, op.Phrase); got != want {
			return fail("plain", "Delete(%d, %q) = %v, oracle says %v", op.ID, op.Phrase, got, want)
		}
		if r.dur != nil {
			if got := r.dur.ix.Delete(op.ID, op.Phrase); got != want {
				return fail("durable", "Delete(%d, %q) = %v, oracle says %v", op.ID, op.Phrase, got, want)
			}
		}
		if r.net != nil {
			got, split := r.net.delete(op.ID, op.Phrase)
			if split {
				return fail("net", "replicas disagree on Delete(%d, %q)", op.ID, op.Phrase)
			}
			if got != want {
				return fail("net", "Delete(%d, %q) = %v, oracle says %v", op.ID, op.Phrase, got, want)
			}
		}
		if d := r.cached.delete(op.ID, op.Phrase, want, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
		r.checks++
	case OpQuery:
		if f := r.checkQuery(i, op.Query); f != nil {
			return f
		}
		if op.Rewrite {
			return r.checkRewrite(i, op.Query)
		}
	case OpBatch:
		view := r.plain.View()
		for _, q := range op.Queries {
			res := view.Match(nil, adindex.Query{Text: q})
			sortAdsByID(res.Ads)
			if d := r.diffAnswer(res.Ads, r.oracle.broadMatch(q), res.Truncated); d != "" {
				return fail("plain", "batch query %q: %s", q, d)
			}
			r.checks++
		}
		if d := r.cached.batch(op.Queries, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
	case OpObserve:
		// Every query an index answers is sampled: an unchecked match adds
		// the query to each target's workload sample and nothing else.
		q := adindex.Query{Text: op.Query}
		r.plain.Match(nil, q)
		if r.dur != nil {
			r.dur.ix.Match(nil, q)
		}
		if r.cached != nil {
			r.cached.ix.Match(nil, q)
		}
	case OpOptimize:
		n := r.plain.Remaps()
		if _, err := r.plain.Optimize(); err != nil {
			return fail("plain", "Optimize: %v", err)
		}
		r.plainInstalls += r.plain.Remaps() - n
		if r.dur != nil {
			n := r.dur.ix.Remaps()
			if _, err := r.dur.ix.Optimize(); err != nil {
				return fail("durable", "Optimize: %v", err)
			}
			r.durInstalls += r.dur.ix.Remaps() - n
		}
		if d := r.cached.relayout(op.Kind, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
	case OpApplyMapping:
		var buf bytes.Buffer
		if err := optimize.WriteMapping(&buf, r.oracle.mapping()); err != nil {
			return fail("state", "WriteMapping: %v", err)
		}
		if err := r.plain.ApplyMapping(bytes.NewReader(buf.Bytes())); err != nil {
			return fail("plain", "ApplyMapping: %v", err)
		}
		if r.dur != nil {
			if err := r.dur.ix.ApplyMapping(bytes.NewReader(buf.Bytes())); err != nil {
				return fail("durable", "ApplyMapping: %v", err)
			}
		}
		if d := r.cached.relayout(op.Kind, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
	case OpPersist:
		if r.dur != nil {
			if err := r.dur.ix.Persist(); err != nil {
				return fail("durable", "Persist: %v", err)
			}
		}
		if d := r.cached.relayout(op.Kind, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
	case OpCrash:
		if r.dur == nil {
			return nil
		}
		if err := r.dur.crash(i, op.Torn); err != nil {
			return fail("durable", "crash-restart (torn=%v): %v", op.Torn, err)
		}
		if d := r.cached.crash(i, op.Torn, &r.oracle); d != "" {
			return fail("cached", "%s", d)
		}
		return r.checkDurableState(i, "post-recovery")
	case OpKill:
		if r.net != nil {
			r.net.kill(op.Replica)
		}
	case OpHeal:
		if r.net != nil {
			r.net.heal(op.Replica)
		}
	case OpSplit, OpMerge, OpMigrate:
		// Only an elastic config's client follows a rebalance; the static
		// one holds a frozen route.
		if r.net == nil || !r.cfg.Elastic {
			return nil
		}
		// The mid-handoff callback interleaves real traffic with the live
		// handoff: an insert that must cross via the dual-write journal,
		// and a query that must answer exactly while moved ads exist
		// physically on both source and target. It fires on replica 0's
		// pre-cutover phases, when every replica still serves the old
		// epoch, so the fan-out sees a consistent deployment.
		var midFail *Failure
		inserted := false
		mid := func(phase string) {
			switch phase {
			case "load":
				if op.Ad != nil && !inserted {
					inserted = true
					if d := r.insertEverywhere(*op.Ad); d != "" && midFail == nil {
						midFail = fail("cached", "mid-handoff %s", d)
					}
				}
			case "catchup":
				if op.Query != "" && midFail == nil {
					midFail = r.checkNetQuery(i, op.Query, "mid-handoff")
				}
			}
		}
		applied, divergence := r.net.rebalance(op, mid)
		if divergence != "" {
			return fail("net", "%s %s", op.Kind, divergence)
		}
		if midFail != nil {
			return midFail
		}
		// An invalid rebalance (shrinker residue) no-ops; its payload ad
		// is inserted anyway so the oracle and the schedule's later
		// deletes/queries stay aligned with generation-time bookkeeping.
		if !applied && op.Ad != nil && !inserted {
			if d := r.insertEverywhere(*op.Ad); d != "" {
				return fail("cached", "%s", d)
			}
		}
		// The cutover epoch bump makes the routed client's next query
		// stale; it must absorb that with a refresh, not a failure.
		if applied && op.Query != "" {
			if f := r.checkNetQuery(i, op.Query, "post-cutover"); f != nil {
				return f
			}
		}
		r.checks++
	case OpCompressed:
		base := core.New(r.plain.Ads(), core.Options{MaxWords: r.cfg.MaxWords})
		snap, err := hashindex.Build(base, hashindex.Options{SuffixBits: r.cfg.SuffixBits})
		if err != nil {
			return fail("compressed", "Build(%d): %v", r.cfg.SuffixBits, err)
		}
		for _, q := range op.Queries {
			got, err := snap.BroadMatchText(q, nil)
			if err != nil {
				return fail("compressed", "BroadMatch(%q): %v", q, err)
			}
			sortAdsByID(got)
			if d := diffAds(got, r.oracle.broadMatch(q)); d != "" {
				return fail("compressed", "query %q: %s", q, d)
			}
			r.checks++
		}
	}
	return nil
}

// checkQuery runs one query on every target and compares against the
// oracle: full deep-equal ads on the single-node targets, the auction
// differential on the plain results, and the ID multiset on the wire.
func (r *runner) checkQuery(i int, q string) *Failure {
	fail := func(target, format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: target, Detail: fmt.Sprintf(format, args...)}
	}
	want := r.oracle.broadMatch(q)

	res := r.plain.Match(nil, adindex.Query{Text: q})
	got := res.Ads
	sortAdsByID(got)
	if r.cfg.mutateResults != nil {
		got = r.cfg.mutateResults(got)
	}
	if d := r.diffAnswer(got, want, res.Truncated); d != "" {
		return fail("plain", "query %q: %s", q, d)
	}
	r.checks++

	// Auction differential: default-Selection SelectAds over the real
	// matches vs. the oracle's independent exclusion+ranking pass, which
	// sees every match.
	if !res.Truncated {
		sel := adindex.SelectAds(q, got, adindex.Selection{})
		if d := diffAds(sel, r.oracle.auction(q)); d != "" {
			return fail("auction", "query %q: %s", q, d)
		}
		r.checks++
	}

	if r.cfg.Budget > 0 {
		if f := r.checkBudgetQuery(i, q, want); f != nil {
			return f
		}
	}

	if r.dur != nil {
		dres := r.dur.ix.Match(nil, adindex.Query{Text: q})
		sortAdsByID(dres.Ads)
		if d := r.diffAnswer(dres.Ads, want, dres.Truncated); d != "" {
			return fail("durable", "query %q: %s", q, d)
		}
		r.checks++
	}

	if r.net != nil {
		if f := r.checkNetQuery(i, q, ""); f != nil {
			return f
		}
	}
	if d := r.cached.query(q, &r.oracle); d != "" {
		return fail("cached", "%s", d)
	}
	return nil
}

// diffAnswer holds an unbudgeted answer to the oracle's: exactly, or, for
// one flagged truncated (the walk bound stops only a query of more than
// 12 indexed words), as an ID-ordered verified sub-multiset of it.
func (r *runner) diffAnswer(got, want []corpus.Ad, truncated bool) string {
	if truncated {
		r.bounded++
		return subsetDiffAds(got, want)
	}
	return diffAds(got, want)
}

// checkBudgetQuery runs q under the configured cost budget and holds
// the answer to the truncation contract: a truncated answer is an
// ID-ordered, fully verified subset of the oracle's full answer (never
// wrong, only incomplete); a non-truncated answer is exact.
func (r *runner) checkBudgetQuery(i int, q string, want []corpus.Ad) *Failure {
	fail := func(format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: "budget", Detail: fmt.Sprintf(format, args...)}
	}
	res := r.plain.Match(nil, adindex.Query{Text: q, Budget: adindex.QueryBudget{MaxCost: r.cfg.Budget}})
	if res.Truncated {
		r.truncated++
		if d := subsetDiffAds(res.Ads, want); d != "" {
			return fail("truncated query %q (budget %d, spent %d): %s", q, r.cfg.Budget, res.CostSpent, d)
		}
	} else if d := diffAds(res.Ads, want); d != "" {
		return fail("query %q (budget %d, spent %d): %s", q, r.cfg.Budget, res.CostSpent, d)
	}
	r.checks++
	return nil
}

// insertEverywhere applies one insert to the oracle and every live
// target (also reached from the mid-handoff rebalance callback). Only the
// cached target's insert can diverge — it re-asks its queries — and its
// divergence is what is returned.
func (r *runner) insertEverywhere(ad corpus.Ad) string {
	r.oracle.insert(ad)
	r.plain.Insert(ad)
	if r.dur != nil {
		r.dur.ix.Insert(ad)
	}
	if r.net != nil {
		r.net.insert(ad)
	}
	return r.cached.insert(ad, &r.oracle)
}

// checkNetQuery runs one query over the wire and compares the ID
// multiset against the oracle, and then each ID's bid and click rate: the
// shards answer with their records on the static route and the live one
// alike. An elastic target's local front end is held to the same diff,
// under target net-local, within the same check. when annotates the
// failure detail (e.g. "mid-handoff"); "" for the ordinary query path.
func (r *runner) checkNetQuery(i int, q, when string) *Failure {
	prefix := ""
	if when != "" {
		prefix = when + " "
	}
	want := r.oracle.broadMatch(q)
	for _, via := range []struct {
		target string
		query  func(string) (*shard.Result, error)
	}{{"net", r.net.query}, {"net-local", r.net.queryLocal}} {
		res, err := via.query(q)
		if err != nil {
			return &Failure{OpIndex: i, Target: via.target, Detail: fmt.Sprintf("%squery %q failed: %v", prefix, q, err)}
		}
		if res == nil {
			continue
		}
		ids := slices.Clone(res.IDs)
		slices.Sort(ids)
		d := diffIDs(ids, idsOf(want))
		if d == "" {
			d = diffRecords(res, want)
		}
		if d != "" {
			return &Failure{OpIndex: i, Target: via.target, Detail: fmt.Sprintf("%squery %q: %s", prefix, q, d)}
		}
	}
	r.checks++
	return nil
}

// diffRecords compares the (ID, bid, click rate) multiset of a records
// reply with the oracle's matches.
func diffRecords(res *shard.Result, want []corpus.Ad) string {
	if len(res.Meta) != len(res.IDs) {
		return fmt.Sprintf("%d metadata records for %d IDs", len(res.Meta), len(res.IDs))
	}
	type record struct {
		id   uint64
		meta multiserver.AdMeta
	}
	byAll := func(a, b record) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.meta.BidMicros, b.meta.BidMicros), cmp.Compare(a.meta.ClickRate, b.meta.ClickRate))
	}
	got, exp := make([]record, len(res.IDs)), make([]record, len(want))
	for i, id := range res.IDs {
		got[i] = record{id, res.Meta[i]}
	}
	for i := range want {
		exp[i] = record{want[i].ID, multiserver.AdMeta{BidMicros: want[i].Meta.BidMicros, ClickRate: want[i].Meta.ClickRate}}
	}
	slices.SortFunc(got, byAll)
	slices.SortFunc(exp, byAll)
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Sprintf("record[%d] = %d %+v, oracle says %d %+v", i, got[i].id, got[i].meta, exp[i].id, exp[i].meta)
		}
	}
	return ""
}

// checkState cross-checks whole-index state: live counts, epochs in
// lockstep, structural invariants, and no sticky persistence errors.
func (r *runner) checkState(i int) *Failure {
	fail := func(target, format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: target, Detail: fmt.Sprintf(format, args...)}
	}
	want := r.oracle.numAds()
	if got := r.plain.NumAds(); got != want {
		return fail("plain", "NumAds = %d, oracle says %d", got, want)
	}
	if err := r.plain.CheckInvariants(); err != nil {
		return fail("plain", "invariants: %v", err)
	}
	r.checks++
	if r.dur != nil {
		if f := r.checkDurableState(i, "periodic"); f != nil {
			return f
		}
	}
	if r.cached != nil {
		if got := r.cached.ix.NumAds(); got != want {
			return fail("cached", "NumAds = %d, oracle says %d", got, want)
		}
		r.checks++
	}
	if r.net != nil {
		if got := r.net.numAds(); got != want {
			return fail("net", "NumAds = %d, oracle says %d", got, want)
		}
		if d := r.net.stateCheck(); d != "" {
			return fail("net", "%s", d)
		}
		r.checks++
	}
	return nil
}

// checkDurableState deep-compares the durable index against the oracle
// and the plain twin: full ad multiset, epoch lockstep net of each twin's
// Optimize installs, clean persist status. Run after every crash-restart
// and on the periodic cadence.
func (r *runner) checkDurableState(i int, when string) *Failure {
	fail := func(format string, args ...interface{}) *Failure {
		return &Failure{OpIndex: i, Target: "durable", Detail: when + ": " + fmt.Sprintf(format, args...)}
	}
	if got, want := r.dur.ix.NumAds(), r.oracle.numAds(); got != want {
		return fail("NumAds = %d, oracle says %d", got, want)
	}
	if d := diffAds(r.dur.ix.Ads(), r.oracle.sortedAds()); d != "" {
		return fail("ads diverged: %s", d)
	}
	if got, want := r.dur.ix.Epoch(), r.plain.Epoch()-r.plainInstalls+r.durInstalls; got != want {
		return fail("epoch = %d, want %d: plain twin at %d after %d installs, %d here", got, want, r.plain.Epoch(), r.plainInstalls, r.durInstalls)
	}
	if err := r.dur.ix.PersistErr(); err != nil {
		return fail("sticky persist error: %v", err)
	}
	r.checks++
	return nil
}

// diffAds compares two ID-sorted ad slices field-by-field, returning ""
// when equal or a deterministic description of the first divergence.
func diffAds(got, want []corpus.Ad) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, oracle says %d (got %v, want %v)", len(got), len(want), idsOf(got), idsOf(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.ID != w.ID {
			return fmt.Sprintf("result %d has ID %d, oracle says %d", i, g.ID, w.ID)
		}
		if d := adDiff(g, w); d != "" {
			return d
		}
	}
	return ""
}

// adDiff field-compares two ads with the same ID, returning "" when
// identical or a deterministic description of the first divergence.
func adDiff(g, w *corpus.Ad) string {
	if g.Phrase != w.Phrase || !stringsEqual(g.Words, w.Words) {
		return fmt.Sprintf("ad %d phrase/words = %q/%v, oracle says %q/%v", g.ID, g.Phrase, g.Words, w.Phrase, w.Words)
	}
	if g.Meta.CampaignID != w.Meta.CampaignID || g.Meta.BidMicros != w.Meta.BidMicros ||
		g.Meta.ClickRate != w.Meta.ClickRate || !stringsEqual(g.Meta.Exclusions, w.Meta.Exclusions) {
		return fmt.Sprintf("ad %d meta = %+v, oracle says %+v", g.ID, g.Meta, w.Meta)
	}
	return ""
}

// subsetDiffAds checks that got is an ID-ordered sub-multiset of want
// (ID-sorted) with every matched element field-identical — the
// truncation contract. Returns "" when it holds.
func subsetDiffAds(got, want []corpus.Ad) string {
	j := 0
	for i := range got {
		if i > 0 && got[i].ID < got[i-1].ID {
			return fmt.Sprintf("truncated results not ID-ordered: ID %d after %d", got[i].ID, got[i-1].ID)
		}
		for j < len(want) && want[j].ID < got[i].ID {
			j++
		}
		if j == len(want) || want[j].ID != got[i].ID {
			return fmt.Sprintf("result %d (ID %d) is not in the oracle answer (got %v, oracle %v)",
				i, got[i].ID, idsOf(got), idsOf(want))
		}
		if d := adDiff(&got[i], &want[j]); d != "" {
			return d
		}
		j++
	}
	return ""
}

func diffIDs(got, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d IDs, oracle says %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("ID[%d] = %d, oracle says %d", i, got[i], want[i])
		}
	}
	return ""
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsOf(ads []corpus.Ad) []uint64 {
	ids := make([]uint64, len(ads))
	for i := range ads {
		ids[i] = ads[i].ID
	}
	return ids
}

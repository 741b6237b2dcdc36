// Package sim is a deterministic, seed-driven whole-stack simulation
// harness. It generates interleaved schedules of index operations —
// inserts, deletes, broad-match queries, batches, workload observation,
// Optimize/ApplyMapping re-mapping, persistence, crash-restart (via
// internal/durable + internal/diskfault), and replica kill/heal (via
// internal/faultnet) — and executes them against the real stack:
//
//   - the single-node adindex.Index (in-memory),
//   - a durable adindex.Index that is crash-restarted at deterministic
//     points, including torn final WAL frames,
//   - compressed B^sig/B^off snapshots (internal/hashindex) of the live ads,
//   - a sharded, replicated TCP deployment queried through
//     shard.NetClient behind fault-injecting proxies.
//
// Every query result is checked against a brute-force model oracle (a
// linear scan over the live ads). On divergence the failing schedule is
// minimized by delta-debugging (drop ops, then shrink queries/corpora)
// and serialized as a trace that replays byte-identically. Identical
// seeds produce identical schedules, verdicts, and minimized traces.
package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"adindex/internal/corpus"
	"adindex/internal/shard"
)

// Kind enumerates the schedule operation types.
type Kind uint8

const (
	// OpInsert inserts one ad (possibly a duplicate of a live record).
	OpInsert Kind = iota + 1
	// OpDelete deletes by (ID, phrase); may target an absent record.
	OpDelete
	// OpQuery broad-matches one query on every target and differentially
	// checks the auction layer (SelectAds) on the plain target.
	OpQuery
	// OpBatch runs a batch of queries on one View.
	OpBatch
	// OpObserve answers a query on every target, unchecked: all it adds is
	// the query in each index's workload sample, which Optimize plans for.
	OpObserve
	// OpOptimize re-maps the index layout; results must not change.
	OpOptimize
	// OpApplyMapping applies a deterministic externally built mapping.
	OpApplyMapping
	// OpPersist forces a snapshot rotation on the durable target.
	OpPersist
	// OpCrash crash-restarts the durable target; Torn tears the final
	// WAL frame of a never-acknowledged insert first.
	OpCrash
	// OpKill partitions one replica of the networked deployment.
	OpKill
	// OpHeal heals a partitioned replica.
	OpHeal
	// OpCompressed builds a compressed snapshot and checks its queries.
	OpCompressed
	// OpSplit splits elastic shard Shard onto a fresh shard (live handoff
	// with a mid-handoff insert of Ad and a mid-handoff check of Query).
	OpSplit
	// OpMerge merges all slots of elastic shard Shard onto shard To.
	OpMerge
	// OpMigrate moves half of elastic shard Shard's slots onto shard To.
	OpMigrate
)

var kindNames = map[Kind]string{
	OpInsert:       "insert",
	OpDelete:       "delete",
	OpQuery:        "query",
	OpBatch:        "batch",
	OpObserve:      "observe",
	OpOptimize:     "optimize",
	OpApplyMapping: "apply-mapping",
	OpPersist:      "persist",
	OpCrash:        "crash",
	OpKill:         "kill",
	OpHeal:         "heal",
	OpCompressed:   "compressed",
	OpSplit:        "split",
	OpMerge:        "merge",
	OpMigrate:      "migrate",
}

// String returns the stable lowercase op name used in traces.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON writes the op name, keeping traces human-readable.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses an op name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kk, n := range kindNames {
		if n == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("sim: unknown op kind %q", s)
}

// Op is one schedule step. Only the fields relevant to Kind are set.
type Op struct {
	Kind    Kind       `json:"kind"`
	Ad      *corpus.Ad `json:"ad,omitempty"`      // OpInsert; rebalance ops: mid-handoff insert
	ID      uint64     `json:"id,omitempty"`      // OpDelete
	Phrase  string     `json:"phrase,omitempty"`  // OpDelete
	Query   string     `json:"query,omitempty"`   // OpQuery, OpObserve; rebalance ops: mid-handoff check
	Queries []string   `json:"queries,omitempty"` // OpBatch, OpCompressed
	Replica int        `json:"replica"`           // OpKill, OpHeal
	Torn    bool       `json:"torn,omitempty"`    // OpCrash
	// Shard and To address elastic rebalance ops: OpSplit moves half of
	// Shard's slots to a fresh shard, OpMerge moves all of Shard's slots
	// to To, OpMigrate moves half of Shard's slots to To.
	Shard int `json:"shard,omitempty"`
	To    int `json:"to,omitempty"`
	// Rewrite additionally checks OpQuery through a rewritten Match (and
	// the discounted auction) against the oracle's rewrite model.
	Rewrite bool `json:"rewrite,omitempty"` // OpQuery
}

// Schedule is a generated (or replayed) operation sequence.
type Schedule struct {
	Seed int64 `json:"seed"`
	Ops  []Op  `json:"ops"`
}

// GenOptions tunes schedule generation. Zero values select defaults
// picked to make collisions interesting: a small vocabulary, duplicate
// word sets, phrases straddling the MaxWords boundary.
type GenOptions struct {
	// Ops is the schedule length. Default 200.
	Ops int
	// Vocab is the vocabulary size. Default 40 (small on purpose: word
	// reuse creates duplicate sets and subset-structured phrases).
	Vocab int
	// Pool is how many distinct ads are pre-generated; inserts draw from
	// the pool with replacement, so re-inserting a pool ad creates exact
	// duplicate (ID, word-set) records. Default 150.
	Pool int
	// MaxPhraseWords bounds generated phrase length. Default 6 — above
	// the harness's MaxWords=4 index option, so long-phrase placement
	// under shortened locators is exercised.
	MaxPhraseWords int
	// MaxQueryWords bounds purely random query length. Default 5. Ad-
	// derived queries may reach MaxPhraseWords+3 words; both stay far
	// below the index's MaxQueryWords cutoff (12), keeping the oracle
	// exact (the cutoff heuristic may legally lose matches past it).
	MaxQueryWords int
}

func (g GenOptions) withDefaults() GenOptions {
	if g.Ops == 0 {
		g.Ops = 200
	}
	if g.Vocab == 0 {
		g.Vocab = 40
	}
	if g.Pool == 0 {
		g.Pool = 150
	}
	if g.MaxPhraseWords == 0 {
		g.MaxPhraseWords = 6
	}
	if g.MaxQueryWords == 0 {
		g.MaxQueryWords = 5
	}
	return g
}

// Generate builds the deterministic schedule for cfg: same Config (seed
// included) → byte-identical schedule. Fault ops are emitted only for
// the targets cfg enables, and replica kills are generated so that at
// most one replica is ever partitioned (the deployment's fault budget).
func Generate(cfg Config) Schedule {
	cfg = cfg.withDefaults()
	g := cfg.Gen
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := corpus.MakeVocabulary(g.Vocab)
	pool := makePool(rng, vocab, g)
	classes := simClasses(vocab)

	type choice struct {
		kind   Kind
		weight int
	}
	choices := []choice{
		{OpInsert, 22}, {OpDelete, 10}, {OpQuery, 30}, {OpBatch, 5},
		{OpObserve, 6}, {OpOptimize, 3}, {OpApplyMapping, 2},
		{OpCompressed, 5},
	}
	if cfg.Durable {
		choices = append(choices, choice{OpPersist, 3}, choice{OpCrash, 3})
	}
	if cfg.Net {
		choices = append(choices, choice{OpKill, 4}, choice{OpHeal, 4})
	}
	// shadow mirrors the elastic deployment's routing table so rebalance
	// ops are generated valid (the runner still no-ops invalid ones a
	// shrinker may produce). Extra rng draws happen only under
	// cfg.Elastic, keeping other configs' schedules byte-identical.
	var shadow *shard.RoutingTable
	if cfg.Elastic {
		shadow, _ = shard.NewRoutingTable(cfg.Shards, simElasticSlots)
		choices = append(choices, choice{OpSplit, 3}, choice{OpMigrate, 3}, choice{OpMerge, 2})
	}
	total := 0
	for _, c := range choices {
		total += c.weight
	}

	var live []int // pool indices believed live (generation heuristic only)
	killed := -1   // replica currently partitioned, -1 = none
	seedInserts := g.Ops / 5
	if seedInserts > 25 {
		seedInserts = 25
	}

	ops := make([]Op, 0, g.Ops)
	for len(ops) < g.Ops {
		kind := OpInsert
		if len(ops) >= seedInserts {
			x := rng.Intn(total)
			for _, c := range choices {
				if x < c.weight {
					kind = c.kind
					break
				}
				x -= c.weight
			}
		}
		switch kind {
		case OpInsert:
			pi := rng.Intn(len(pool))
			ad := pool[pi]
			ops = append(ops, Op{Kind: OpInsert, Ad: &ad})
			live = append(live, pi)
		case OpDelete:
			var pi int
			if len(live) > 0 && rng.Intn(10) < 8 {
				j := rng.Intn(len(live))
				pi = live[j]
				live = append(live[:j], live[j+1:]...)
			} else {
				// Probable miss: an arbitrary pool ad (often not live).
				pi = rng.Intn(len(pool))
			}
			ops = append(ops, Op{Kind: OpDelete, ID: pool[pi].ID, Phrase: pool[pi].Phrase})
		case OpQuery, OpObserve:
			op := Op{Kind: kind, Query: genQuery(rng, vocab, pool, live, g)}
			if kind == OpQuery && cfg.Rewrite && rng.Intn(10) < 4 {
				// Rewrite query: perturb with a typo or a synonym swap so
				// the approximate path has real work to do. The extra rng
				// draws happen only under cfg.Rewrite, so schedules of
				// non-rewrite configs are byte-identical to before.
				op.Query = perturbQuery(rng, op.Query, classes)
				op.Rewrite = true
			}
			ops = append(ops, op)
		case OpBatch, OpCompressed:
			n := 2 + rng.Intn(3)
			qs := make([]string, n)
			for i := range qs {
				qs[i] = genQuery(rng, vocab, pool, live, g)
			}
			ops = append(ops, Op{Kind: kind, Queries: qs})
		case OpOptimize, OpApplyMapping, OpPersist:
			ops = append(ops, Op{Kind: kind})
		case OpCrash:
			ops = append(ops, Op{Kind: OpCrash, Torn: rng.Intn(2) == 0})
		case OpKill, OpHeal:
			// One fault budget: kill only when healed, heal what is killed.
			if killed < 0 {
				killed = rng.Intn(cfg.Replicas)
				ops = append(ops, Op{Kind: OpKill, Replica: killed})
			} else {
				ops = append(ops, Op{Kind: OpHeal, Replica: killed})
				killed = -1
			}
		case OpSplit, OpMerge, OpMigrate:
			op, next, ok := genRebalance(rng, kind, shadow)
			if !ok {
				continue // topology cannot support this rebalance right now
			}
			shadow = next
			// Every rebalance carries mid-handoff traffic: an insert that
			// must cross via the dual-write journal and a query that must
			// answer correctly while physical copies exist on both sides.
			pi := rng.Intn(len(pool))
			ad := pool[pi]
			op.Ad = &ad
			live = append(live, pi)
			op.Query = genQuery(rng, vocab, pool, live, g)
			ops = append(ops, op)
		}
	}
	return Schedule{Seed: cfg.Seed, Ops: ops}
}

// genRebalance picks a valid rebalance for the shadow table, returning
// the op and the successor table, or ok=false when the topology cannot
// support that rebalance kind (e.g. split at the shard cap).
func genRebalance(rng *rand.Rand, kind Kind, t *shard.RoutingTable) (Op, *shard.RoutingTable, bool) {
	active := t.ActiveShards()
	splittable := func() []int {
		var out []int
		for _, s := range active {
			if len(t.SlotsOf(s)) >= 2 {
				out = append(out, s)
			}
		}
		return out
	}
	switch kind {
	case OpSplit:
		if t.NumShards >= simElasticMaxShards {
			return Op{}, nil, false
		}
		cands := splittable()
		if len(cands) == 0 {
			return Op{}, nil, false
		}
		s := cands[rng.Intn(len(cands))]
		next, err := t.MoveSlots(t.SplitSlots(s), t.NumShards)
		if err != nil {
			return Op{}, nil, false
		}
		return Op{Kind: OpSplit, Shard: s}, next, true
	case OpMigrate:
		cands := splittable()
		if len(cands) == 0 || len(active) < 2 {
			return Op{}, nil, false
		}
		from := cands[rng.Intn(len(cands))]
		var targets []int
		for _, s := range active {
			if s != from {
				targets = append(targets, s)
			}
		}
		to := targets[rng.Intn(len(targets))]
		next, err := t.MoveSlots(t.SplitSlots(from), to)
		if err != nil {
			return Op{}, nil, false
		}
		return Op{Kind: OpMigrate, Shard: from, To: to}, next, true
	default: // OpMerge
		if len(active) < 2 {
			return Op{}, nil, false
		}
		fi := rng.Intn(len(active))
		from := active[fi]
		var targets []int
		for _, s := range active {
			if s != from {
				targets = append(targets, s)
			}
		}
		to := targets[rng.Intn(len(targets))]
		next, err := t.MoveSlots(t.SlotsOf(from), to)
		if err != nil {
			return Op{}, nil, false
		}
		return Op{Kind: OpMerge, Shard: from, To: to}, next, true
	}
}

// makePool pre-generates the ad pool: small vocabulary, phrase lengths
// 1..MaxPhraseWords drawn with replacement (duplicate words exercise
// folding), occasional mixed case, coarse bid ties, and ~1/3 of ads
// carrying negative keywords.
func makePool(rng *rand.Rand, vocab []string, g GenOptions) []corpus.Ad {
	pool := make([]corpus.Ad, g.Pool)
	for i := range pool {
		n := 1 + rng.Intn(g.MaxPhraseWords)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		if rng.Intn(4) == 0 {
			toks[0] = strings.ToUpper(toks[0])
		}
		meta := corpus.Meta{
			CampaignID: uint32(rng.Intn(10)),
			BidMicros:  int64(1+rng.Intn(5)) * 1000, // coarse: frequent ties
			ClickRate:  uint16(rng.Intn(100)),
		}
		if rng.Intn(3) == 0 {
			ne := 1 + rng.Intn(2)
			for k := 0; k < ne; k++ {
				meta.Exclusions = append(meta.Exclusions, vocab[rng.Intn(len(vocab))])
			}
		}
		pool[i] = corpus.NewAd(uint64(i+1), strings.Join(toks, " "), meta)
	}
	return pool
}

// genQuery builds one query: usually derived from a live ad's word set
// (some words dropped, extra vocabulary words mixed in, optionally a
// duplicated word, order shuffled), otherwise purely random words.
func genQuery(rng *rand.Rand, vocab []string, pool []corpus.Ad, live []int, g GenOptions) string {
	var words []string
	if len(live) > 0 && rng.Intn(10) < 6 {
		ad := &pool[live[rng.Intn(len(live))]]
		words = append(words, ad.Words...)
		for len(words) > 1 && rng.Intn(3) == 0 {
			j := rng.Intn(len(words))
			words = append(words[:j], words[j+1:]...)
		}
		for n := rng.Intn(3); n > 0; n-- {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(4) == 0 {
			words = append(words, words[rng.Intn(len(words))])
		}
	} else {
		n := 1 + rng.Intn(g.MaxQueryWords)
		for i := 0; i < n; i++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return strings.Join(words, " ")
}

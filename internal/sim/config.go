package sim

import "adindex/internal/corpus"

// Config selects the targets and tuning of one simulation run. It is
// embedded in traces, so a replayed trace reconstructs the exact run.
type Config struct {
	// Seed drives schedule generation and every injected fault.
	Seed int64 `json:"seed"`
	// Gen tunes the schedule generator.
	Gen GenOptions `json:"gen"`

	// Durable adds the crash-restarted durable target (requires Dir).
	Durable bool `json:"durable"`
	// Rewrite enables approximate broad match on every index target and
	// makes the generator emit rewrite queries (typo-injected and
	// synonym-substituted), each checked against the oracle's independent
	// rewrite model (naive word list + the shared deterministic planner).
	Rewrite bool `json:"rewrite"`
	// Net adds the sharded/replicated TCP target behind fault proxies.
	Net bool `json:"net"`
	// Elastic (requires Net) makes the networked deployment move: the
	// client follows the clusters' live route instead of holding the
	// frozen route of the initial shards, and the generator emits live
	// split/merge/migrate handoffs that carry mid-handoff inserts and
	// queries.
	Elastic bool `json:"elastic,omitempty"`
	// Cached adds the cached-server target: an index of its own (durable
	// and crash-restarted with the durable target when Durable is set)
	// behind the HTTP serving layer, so every query passes the reply cache
	// — three times: a miss, the miss that stores the reply, a hit — and
	// every cached reply is re-asked after each write.
	Cached bool `json:"cached,omitempty"`
	// Shards and Replicas shape the networked deployment. Defaults 2, 2.
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	// Dir is the scratch directory for the durable target's state (the
	// caller owns cleanup; tests pass t.TempDir()). Not serialized: a
	// replay supplies its own scratch directory.
	Dir string `json:"-"`

	// MaxWords is the index's locator-length bound. Default 4 — small,
	// so generated phrases straddle the boundary.
	MaxWords int `json:"max_words"`
	// MaxDeltaAds bounds the mutation overlay. Default 16 — small, so
	// folds happen constantly.
	MaxDeltaAds int `json:"max_delta_ads"`
	// SnapshotEvery is the durable target's WAL rotation threshold.
	// Default 32 — small, so rotations interleave with crashes.
	SnapshotEvery int `json:"snapshot_every"`
	// SuffixBits sizes the compressed snapshot's signature suffix.
	// Default 8.
	SuffixBits int `json:"suffix_bits"`
	// CheckEvery cross-checks full state (ad counts, epochs, structural
	// invariants) every N ops. Default 25; negative disables.
	CheckEvery int `json:"check_every"`

	// Budget, when > 0, is the overload scenario: every OpQuery is
	// additionally run through Match with Budget.MaxCost=Budget on the
	// plain target (rewrite queries with Rewrite set as well) and held to
	// the truncation contract — a truncated answer must be an ID-ordered
	// subset of the full oracle answer with every element a true,
	// field-identical match; a non-truncated answer must be exact. Zero
	// disables the budgeted check.
	Budget int64 `json:"budget,omitempty"`

	// mutateResults, when set, perturbs the plain target's OpQuery
	// results before the oracle comparison. Test seam: shrinker and
	// oracle tests inject a deliberate off-by-one here and assert it is
	// caught and minimized.
	mutateResults func([]corpus.Ad) []corpus.Ad
}

func (c Config) withDefaults() Config {
	c.Gen = c.Gen.withDefaults()
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.MaxWords == 0 {
		c.MaxWords = 4
	}
	if c.MaxDeltaAds == 0 {
		c.MaxDeltaAds = 16
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 32
	}
	if c.SuffixBits == 0 {
		c.SuffixBits = 8
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 25
	}
	return c
}

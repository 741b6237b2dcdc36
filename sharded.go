package adindex

import (
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/shard"
)

// ShardedIndex partitions the corpus across several independent indexes
// (the scale-out deployment of the paper's Section VII-B). In process a
// query visits the shards one after another and the answers are merged;
// the fan-out runs in parallel once the shards are servers (ServeShards)
// behind a shard.NetClient. Ads sharing a word set stay co-located, so
// per-shard re-mapping remains valid.
//
// ShardedIndex is safe for concurrent use.
type ShardedIndex struct {
	cluster *shard.ElasticCluster
}

// NewSharded partitions ads across numShards shard indexes. Only the
// structural options (MaxWords, MaxQueryWords) apply per shard; single-
// node features configured on Options — including the continuous
// adaptation loop (Options.Adapt) — are not wired through the cluster.
// Sharded deployments re-map through the offline path instead: export
// each shard's workload, optimize out of band, and apply the mapping
// per shard (re-mapping stays shard-local because ads sharing a word
// set are co-located).
func NewSharded(ads []Ad, numShards int, opts Options) (*ShardedIndex, error) {
	// A static cluster is an elastic one that is never rebalanced: one
	// slot per shard, no room to grow.
	cluster, err := shard.NewElastic(ads, numShards, shard.ElasticOptions{
		Slots:     numShards,
		MaxShards: numShards,
		Index:     core.Options{MaxWords: opts.MaxWords, MaxQueryWords: opts.MaxQueryWords},
	})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{cluster: cluster}, nil
}

// BroadMatch returns copies of all broad-matching ads, merged across
// shards and ordered by ID.
func (s *ShardedIndex) BroadMatch(query string) []Ad {
	return s.BroadMatchCounted(query, nil)
}

// BroadMatchCounted is BroadMatch with summed per-shard access accounting.
func (s *ShardedIndex) BroadMatchCounted(query string, counters *Counters) []Ad {
	var out []Ad
	s.cluster.Match(query, counters, func(matches []*corpus.Ad) { out = appendAdCopies(nil, matches) })
	return out
}

// Insert routes the ad to its shard.
func (s *ShardedIndex) Insert(ad Ad) { s.cluster.Insert(ad) }

// Delete removes the ad from its shard, reporting whether it was found.
func (s *ShardedIndex) Delete(id uint64, phrase string) bool {
	return s.cluster.Delete(id, phrase)
}

// NumShards returns the shard count.
func (s *ShardedIndex) NumShards() int { return s.cluster.NumShards() }

// NumAds returns the total indexed advertisements.
func (s *ShardedIndex) NumAds() int { return s.cluster.NumAds() }

// ServeShards exposes every shard as a TCP index server speaking the
// multiserver frame protocol on an ephemeral loopback port, turning the
// in-process cluster into the networked Section VII-B deployment that
// shard.DialReplicaShards (and a remote-mode internal/server front-end)
// can query. It returns the per-shard listen addresses and a close
// function that stops all servers. To stand up a replicated deployment,
// call ServeShards on several ShardedIndex instances built from the
// same corpus and zip the address lists into replica groups.
func (s *ShardedIndex) ServeShards() ([]string, func(), error) {
	es, err := s.cluster.Serve()
	if err != nil {
		return nil, nil, err
	}
	return es.Addrs(), es.Close, nil
}

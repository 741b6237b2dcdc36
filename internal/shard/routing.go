package shard

import (
	"fmt"
	"sort"

	"adindex/internal/core"
)

// Versioned slot routing for elastic deployments.
//
// A fixed universe of hash slots is divided among shards by an explicit
// ownership map, and every change to that map — a split, a merge, a
// migration — produces a NEW table with the epoch incremented. Tables
// are immutable once published (RCU-style, like the index's snapshots):
// readers load a pointer, writers publish a successor. The epoch rides
// on every frame-protocol request (multiserver.AppendEpochRequest), so a
// client holding a retired table gets a typed stale-epoch rejection and
// refreshes instead of silently missing a shard that data moved to.

// DefaultSlots is the default size of the slot universe. Slots are the
// unit of data movement: a shard owns a set of slots, and rebalancing
// reassigns whole slots.
const DefaultSlots = 64

// RoutingTable is one immutable routing epoch: which shard owns each
// hash slot. Do not mutate a published table — derive a successor with
// MoveSlots.
type RoutingTable struct {
	// Epoch versions the table; every ownership change increments it.
	// Versioned tables start at 1 (NewRoutingTable); 0 marks a frozen,
	// unversioned table (frozenRoute).
	Epoch uint64 `json:"epoch"`
	// Owners maps slot -> owning shard id. len(Owners) is the slot
	// universe size and never changes across epochs of one deployment.
	Owners []int `json:"owners"`
	// NumShards is the number of addressable shard positions (retired
	// shards keep their id but own zero slots).
	NumShards int `json:"num_shards"`
}

// NewRoutingTable builds the epoch-1 table: slots dealt round-robin
// across numShards shards.
func NewRoutingTable(numShards, slots int) (*RoutingTable, error) {
	if numShards < 1 {
		return nil, fmt.Errorf("shard: routing table needs >= 1 shard, got %d", numShards)
	}
	if slots < numShards {
		return nil, fmt.Errorf("shard: %d slots cannot cover %d shards", slots, numShards)
	}
	t := &RoutingTable{Epoch: 1, Owners: make([]int, slots), NumShards: numShards}
	for s := range t.Owners {
		t.Owners[s] = s % numShards
	}
	return t, nil
}

// SlotOfWords maps a canonical word set to its slot. Routing shares the
// word-set hash used for shard placement, so all copies of a word set
// land in one slot and re-mapping groups stay co-located through any
// number of rebalances.
func (t *RoutingTable) SlotOfWords(words []string) int {
	return int(core.WordHash(words) % uint64(len(t.Owners)))
}

// OwnerOf returns the shard owning the word set's slot.
func (t *RoutingTable) OwnerOf(words []string) int {
	return t.Owners[t.SlotOfWords(words)]
}

// SlotsOf returns the slots owned by shard, ascending.
func (t *RoutingTable) SlotsOf(shard int) []int {
	var out []int
	for s, o := range t.Owners {
		if o == shard {
			out = append(out, s)
		}
	}
	return out
}

// ActiveShards returns the shard ids owning at least one slot,
// ascending. Queries fan out to exactly these shards.
func (t *RoutingTable) ActiveShards() []int {
	seen := make(map[int]bool)
	var out []int
	for _, o := range t.Owners {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy (the only legal way to start editing).
func (t *RoutingTable) Clone() *RoutingTable {
	return &RoutingTable{Epoch: t.Epoch, Owners: append([]int(nil), t.Owners...), NumShards: t.NumShards}
}

// MoveSlots derives the successor table with the given slots reassigned
// to shard `to` and the epoch incremented. `to` may be the next fresh
// shard id (NumShards) — a split target — or an existing shard.
func (t *RoutingTable) MoveSlots(slots []int, to int) (*RoutingTable, error) {
	if to < 0 || to > t.NumShards {
		return nil, fmt.Errorf("shard: move target %d out of range (have %d shards)", to, t.NumShards)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("shard: no slots to move")
	}
	n := t.Clone()
	for _, s := range slots {
		if s < 0 || s >= len(n.Owners) {
			return nil, fmt.Errorf("shard: slot %d out of range (have %d slots)", s, len(n.Owners))
		}
		n.Owners[s] = to
	}
	if to == t.NumShards {
		n.NumShards++
	}
	n.Epoch++
	return n, nil
}

// SplitSlots returns the half of shard's slots that a split would hand
// to a fresh shard (the upper half of its slot list, at least one and at
// most all-but-one). Nil when the shard owns fewer than two slots and
// cannot split.
func (t *RoutingTable) SplitSlots(shard int) []int {
	owned := t.SlotsOf(shard)
	if len(owned) < 2 {
		return nil
	}
	return owned[len(owned)/2:]
}

// Validate checks structural sanity: every owner in range, every active
// shard id addressable.
func (t *RoutingTable) Validate() error {
	if len(t.Owners) == 0 {
		return fmt.Errorf("shard: routing table has no slots")
	}
	if t.NumShards < 1 {
		return fmt.Errorf("shard: routing table has no shards")
	}
	for s, o := range t.Owners {
		if o < 0 || o >= t.NumShards {
			return fmt.Errorf("shard: slot %d owned by out-of-range shard %d (have %d)", s, o, t.NumShards)
		}
	}
	return nil
}

// Route is what a NetClient needs to reach a deployment: the current
// routing table plus the replica addresses of every shard position.
// Published as JSON by the admin endpoint and returned by the fetch
// callback a NetClient refreshes through.
type Route struct {
	Table RoutingTable `json:"table"`
	// Replicas lists, per shard id, the interchangeable replica addresses
	// serving that shard. Every one holds its shard's ads and answers a
	// records request (multiserver.AppendRecordsRequest) with each match's
	// metadata.
	Replicas [][]string `json:"replicas"`
}

// Validate checks that the route addresses every shard the table can
// target.
func (r *Route) Validate() error {
	if err := r.Table.Validate(); err != nil {
		return err
	}
	if len(r.Replicas) < r.Table.NumShards {
		return fmt.Errorf("shard: route has %d address groups for %d shards", len(r.Replicas), r.Table.NumShards)
	}
	for _, id := range r.Table.ActiveShards() {
		if len(r.Replicas[id]) == 0 {
			return fmt.Errorf("shard: active shard %d has no replica addresses", id)
		}
	}
	return nil
}

// frozenRoute is the route of a static deployment: every listed shard
// active on one slot of its own, at epoch 0 — below any epoch a
// rebalance can publish, so it reads "unversioned". A client holding it
// sends records requests at epoch 0, which every backend serves
// unchecked, is never stale and never refreshes.
func frozenRoute(replicaAddrs [][]string) *Route {
	owners := make([]int, len(replicaAddrs))
	for i := range owners {
		owners[i] = i
	}
	return &Route{Table: RoutingTable{Owners: owners, NumShards: len(owners)}, Replicas: replicaAddrs}
}

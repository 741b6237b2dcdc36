package shard

import (
	"testing"

	"adindex/internal/textnorm"
)

func TestRoutingTableBasics(t *testing.T) {
	table, err := NewRoutingTable(3, 12)
	if err != nil {
		t.Fatalf("NewRoutingTable: %v", err)
	}
	if table.Epoch != 1 || table.NumShards != 3 || len(table.Owners) != 12 {
		t.Fatalf("fresh table = %+v", table)
	}
	if err := table.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Round-robin deal: every shard owns 4 of the 12 slots.
	for id := 0; id < 3; id++ {
		if got := len(table.SlotsOf(id)); got != 4 {
			t.Fatalf("shard %d owns %d slots, want 4", id, got)
		}
	}
	if got := table.ActiveShards(); len(got) != 3 {
		t.Fatalf("ActiveShards = %v", got)
	}
	// Routing is a pure function of the word set.
	w := textnorm.WordSet("cheap flights paris")
	if table.OwnerOf(w) != table.Owners[table.SlotOfWords(w)] {
		t.Fatalf("OwnerOf disagrees with SlotOfWords")
	}

	if _, err := NewRoutingTable(0, 8); err == nil {
		t.Fatalf("0 shards accepted")
	}
	if _, err := NewRoutingTable(4, 2); err == nil {
		t.Fatalf("fewer slots than shards accepted")
	}
}

func TestRoutingTableMoveSlots(t *testing.T) {
	table, _ := NewRoutingTable(2, 8)

	// Split: move shard 0's upper half to the fresh shard id 2.
	split := table.SplitSlots(0)
	if len(split) != 2 {
		t.Fatalf("SplitSlots(0) = %v, want 2 slots", split)
	}
	next, err := table.MoveSlots(split, 2)
	if err != nil {
		t.Fatalf("MoveSlots: %v", err)
	}
	if next.Epoch != 2 || next.NumShards != 3 {
		t.Fatalf("successor = epoch %d shards %d, want 2/3", next.Epoch, next.NumShards)
	}
	if len(next.SlotsOf(2)) != 2 || len(next.SlotsOf(0)) != 2 {
		t.Fatalf("post-split ownership: shard0=%v shard2=%v", next.SlotsOf(0), next.SlotsOf(2))
	}
	// The predecessor is untouched (immutability).
	if table.Epoch != 1 || table.NumShards != 2 || len(table.SlotsOf(0)) != 4 {
		t.Fatalf("predecessor mutated: %+v", table)
	}

	// Merge: all of shard 1's slots onto shard 0 retires shard 1.
	merged, err := next.MoveSlots(next.SlotsOf(1), 0)
	if err != nil {
		t.Fatalf("merge MoveSlots: %v", err)
	}
	if got := merged.ActiveShards(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("post-merge active shards = %v, want [0 2]", got)
	}
	if merged.NumShards != 3 {
		t.Fatalf("retired shard dropped from NumShards: %d", merged.NumShards)
	}

	// A retired shard cannot split.
	if s := merged.SplitSlots(1); s != nil {
		t.Fatalf("retired shard split slots = %v", s)
	}

	if _, err := table.MoveSlots(nil, 1); err == nil {
		t.Fatalf("empty move accepted")
	}
	if _, err := table.MoveSlots([]int{99}, 1); err == nil {
		t.Fatalf("out-of-range slot accepted")
	}
	if _, err := table.MoveSlots([]int{0}, 5); err == nil {
		t.Fatalf("out-of-range target accepted")
	}
}

func TestRouteValidate(t *testing.T) {
	table, _ := NewRoutingTable(2, 4)
	r := &Route{Table: *table, Replicas: [][]string{{"a:1"}, {"b:1"}}}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	r2 := &Route{Table: *table, Replicas: [][]string{{"a:1"}}}
	if err := r2.Validate(); err == nil {
		t.Fatalf("route missing a shard's addresses accepted")
	}
	r3 := &Route{Table: *table, Replicas: [][]string{{"a:1"}, {}}}
	if err := r3.Validate(); err == nil {
		t.Fatalf("route with empty active address group accepted")
	}
}

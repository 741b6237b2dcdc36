package treeindex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// The tree is read off whatever nodes its core index holds, including
// nodes Insert grew and Delete shrank after the bulk load.
func TestInsertDelete(t *testing.T) {
	base := core.New(nil, core.Options{})
	base.Insert(corpus.NewAd(1, "cheap books", corpus.Meta{}))
	base.Insert(corpus.NewAd(2, "cheap used books", corpus.Meta{}))
	base.Insert(corpus.NewAd(3, "cheap books", corpus.Meta{}))
	ix := New(base)
	if ix.NumAds() != 3 {
		t.Fatalf("NumAds = %d", ix.NumAds())
	}
	got := ids(ix.BroadMatchText("cheap used books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
	if !base.Delete(2, "cheap used books") {
		t.Fatal("delete failed")
	}
	got = ids(New(base).BroadMatchText("cheap used books", nil))
	if !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("after delete: %v", got)
	}
	base.Delete(1, "cheap books")
	base.Delete(3, "cheap books")
	ix = New(base)
	if ix.NumAds() != 0 {
		t.Fatalf("NumAds = %d after emptying", ix.NumAds())
	}
	// Only the root remains.
	if s := ix.Stats(); s.TrieNodes != 1 || s.DataNodes != 0 {
		t.Errorf("trie not empty: %+v", s)
	}
}

// Property: a tree read off a core index after random insert/delete churn
// answers as a reference scan of the live ads does.
func TestChurnQuick(t *testing.T) {
	phrases := []string{"a", "b", "a b", "b c", "a b c", "c d e", "a a", "d e f g h"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := core.New(nil, core.Options{MaxWords: 3})
		live := make(map[uint64]string)
		next := uint64(1)
		for step := 0; step < 50; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				p := phrases[rng.Intn(len(phrases))]
				base.Insert(corpus.NewAd(next, p, corpus.Meta{}))
				live[next] = p
				next++
			} else {
				for id, p := range live {
					if !base.Delete(id, p) {
						return false
					}
					delete(live, id)
					break
				}
			}
		}
		ix := New(base)
		if ix.NumAds() != len(live) {
			return false
		}
		queries := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}, {"c", "d", "e"},
			{"a_a"}, {"d", "e", "f", "g", "h"}}
		for _, q := range queries {
			got := ids(ix.BroadMatch(q, nil))
			var want []uint64
			for id, p := range live {
				if textnorm.IsSubset(textnorm.WordSet(p), q) {
					want = append(want, id)
				}
			}
			if len(got) != len(want) {
				return false
			}
			seen := make(map[uint64]bool, len(want))
			for _, id := range want {
				seen[id] = true
			}
			for _, id := range got {
				if !seen[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adindex/internal/corpus"
)

// nodesOf lists an index's nodes as Nodes walks them.
func nodesOf(ix *Index) []any {
	var out []any
	ix.Nodes(func(h uint64, records []corpus.Ad) { out = append(out, h, records) })
	return out
}

// TestColumnsUnderChurn: seeded Inserts and Deletes on a bulk-loaded
// index — words new to the vocabulary, duplicate IDs, exclusions,
// punctuation-only phrases, phrases longer than MaxWords — keep every
// column right (CheckInvariants re-derives them all) and leave the nodes
// a fresh build over the surviving ads, under the index's own mapping,
// would hold. The steps run past compaction.
func TestColumnsUnderChurn(t *testing.T) {
	opts := Options{MaxWords: 4}
	base := corpus.Generate(corpus.GenOptions{NumAds: 300, Seed: 7}).Ads
	survivors := append([]corpus.Ad(nil), base...)
	ix := New(base, opts)
	rng := rand.New(rand.NewSource(8))
	phrase := func() string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("fresh%d %s", rng.Intn(50), base[rng.Intn(len(base))].Phrase)
		case 1:
			return "?!"
		case 2:
			return "a b c d e f g " + base[rng.Intn(len(base))].Phrase // long
		default:
			return base[rng.Intn(len(base))].Phrase
		}
	}
	compactions := 0
	for step := 0; step < 600; step++ {
		slots := len(ix.ids)
		if len(survivors) > 0 && rng.Intn(5) < 2 {
			victim := survivors[rng.Intn(len(survivors))]
			if !ix.Delete(victim.ID, victim.Phrase) {
				t.Fatalf("step %d: Delete(%d, %q) missed", step, victim.ID, victim.Phrase)
			}
			// Delete takes the first record of the ID and set in node
			// order: the one inserted last.
			key := victim.SetKey()
			for i := len(survivors) - 1; i >= 0; i-- {
				if survivors[i].ID == victim.ID && survivors[i].SetKey() == key {
					survivors = append(survivors[:i], survivors[i+1:]...)
					break
				}
			}
		} else {
			meta := corpus.Meta{BidMicros: int64(step), ClickRate: uint16(step), CampaignID: uint32(step % 7)}
			if rng.Intn(3) == 0 {
				meta.Exclusions = []string{"free", fmt.Sprintf("cheap %d", step)}
			}
			id := uint64(1000 + step)
			if rng.Intn(4) == 0 {
				id = survivors[rng.Intn(len(survivors))].ID // a duplicate ID
			}
			ad := corpus.NewAd(id, phrase(), meta)
			ix.Insert(ad)
			survivors = append(survivors, ad)
		}
		if len(ix.ids) < slots {
			compactions++
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := NewWithMapping(survivors, ix.Mapping(), opts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := nodesOf(ix), nodesOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: nodes differ from a fresh build over the %d survivors", step, len(survivors))
		}
	}
	if compactions == 0 {
		t.Fatal("the churn never compacted the columns")
	}
}

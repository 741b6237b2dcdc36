package workload

import (
	"strings"
	"testing"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

func TestGenerateAdversarialDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 41})
	a := GenerateAdversarial(c, AdvOptions{NumQueries: 32, Seed: 7})
	b := GenerateAdversarial(c, AdvOptions{NumQueries: 32, Seed: 7})
	if len(a.Queries) != 32 || len(b.Queries) != len(a.Queries) {
		t.Fatalf("generated %d/%d queries", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i].Key() != b.Queries[i].Key() {
			t.Fatalf("query %d differs across same-seed runs", i)
		}
	}
	other := GenerateAdversarial(c, AdvOptions{NumQueries: 32, Seed: 8})
	same := 0
	for i := range a.Queries {
		if a.Queries[i].Key() == other.Queries[i].Key() {
			same++
		}
	}
	if same == len(a.Queries) {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestAdversarialQueriesAreExpensive is the point of the generator: its
// queries must cost far more index work than ordinary generated queries
// — otherwise the overload experiments exercise nothing.
func TestAdversarialQueriesAreExpensive(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 42})
	ix := core.New(c.Ads, core.Options{})

	var sc core.Scratch
	spend := func(wl *Workload) int64 {
		var total int64
		for i := range wl.Queries {
			q := textnorm.WordSet(strings.Join(wl.Queries[i].Words, " "))
			var b core.Budget
			b.Init(0, time.Time{})
			ix.AppendBroadRefs(nil, q, nil, &sc, &b)
			total += b.Spent()
		}
		return total
	}

	adv := GenerateAdversarial(c, AdvOptions{NumQueries: 40, Seed: 9})
	normal := Generate(c, GenOptions{NumQueries: 40, Seed: 9})
	advCost := spend(adv) / int64(len(adv.Queries))
	normalCost := spend(normal) / int64(len(normal.Queries))
	if advCost < 4*normalCost {
		t.Fatalf("adversarial queries not expensive enough: %d vs %d cost units/query",
			advCost, normalCost)
	}
}

func TestFlashCrowdStream(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 500, Seed: 43})
	wl := Generate(c, GenOptions{NumQueries: 50, Seed: 44})

	s1 := wl.FlashCrowdStream(1000, 16, 5)
	s2 := wl.FlashCrowdStream(1000, 16, 5)
	if len(s1) != 1000 {
		t.Fatalf("stream length %d", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("stream not deterministic at %d", i)
		}
	}
	// Bursts exist: some query must appear in a run of >= 8 consecutive
	// occurrences (background-only traffic over 50 queries would not).
	longest, run := 0, 1
	for i := 1; i < len(s1); i++ {
		if s1[i] == s1[i-1] {
			run++
		} else {
			run = 1
		}
		if run > longest {
			longest = run
		}
	}
	if longest < 8 {
		t.Fatalf("no flash crowds: longest run %d", longest)
	}
	// But it is not all one query.
	distinct := map[*Query]bool{}
	for _, q := range s1 {
		distinct[q] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("stream collapsed to %d distinct queries", len(distinct))
	}
}

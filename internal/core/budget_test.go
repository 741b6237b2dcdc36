package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// longPopularQueries builds n canonical queries of width words each,
// drawn from the corpus's most document-frequent vocabulary, so subset
// enumeration has live locator prefixes to descend into.
func longPopularQueries(c *corpus.Corpus, n, width int) [][]string {
	df := map[string]int{}
	for i := range c.Ads {
		for _, w := range c.Ads[i].Words {
			df[w]++
		}
	}
	vocab := c.Vocabulary()
	sort.SliceStable(vocab, func(i, j int) bool { return df[vocab[i]] > df[vocab[j]] })
	var queries [][]string
	for off := 0; off+width <= len(vocab) && len(queries) < n; off += width / 2 {
		queries = append(queries, textnorm.CanonicalSet(vocab[off:off+width]))
	}
	return queries
}

// budgetedIDs runs one budgeted broad match and returns the matched IDs
// in result order.
func budgetedIDs(ix *Index, q []string, b *Budget) []uint64 {
	var ids []uint64
	for _, r := range ix.AppendBroadRefs(nil, q, nil, nil, b) {
		ids = append(ids, ix.ID(r))
	}
	return ids
}

// isSubsequence reports whether sub appears in full in order (both are
// ID-sorted, so subset-of-multiset reduces to subsequence).
func isSubsequence(sub, full []uint64) bool {
	j := 0
	for _, id := range sub {
		for j < len(full) && full[j] != id {
			j++
		}
		if j == len(full) {
			return false
		}
		j++
	}
	return true
}

// TestBudgetUnlimitedMatchesPlain: a generous or zero budget must not
// change results, and must never report truncation.
func TestBudgetUnlimitedMatchesPlain(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 91})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 300, Seed: 92})
	ix := New(c.Ads, Options{})
	for _, q := range wl.Queries {
		want := columnarIDs(ix, q.Words)
		var b Budget // zero MaxCost: unlimited
		got := budgetedIDs(ix, q.Words, &b)
		if b.Exhausted() {
			t.Fatalf("query %v: unlimited budget exhausted", q.Words)
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: budgeted found %d matches, plain %d", q.Words, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %v: result %d: budgeted %d, plain %d", q.Words, i, got[i], want[i])
			}
		}
		if b.Spent() == 0 && len(q.Words) > 0 && len(want) > 0 {
			t.Fatalf("query %v: no cost charged for a matching query", q.Words)
		}
	}
}

// TestBudgetTruncationIsSubset: under every budget level, the truncated
// result is an ID-ordered subset of the full result, and exhaustion is
// reported iff the result could be short.
func TestBudgetTruncationIsSubset(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 3000, Seed: 93})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 94})
	ix := New(c.Ads, Options{})
	truncations := 0
	for _, q := range wl.Queries {
		full := columnarIDs(ix, q.Words)
		for _, max := range []int64{1, 4, 16, 64, 256} {
			b := Budget{MaxCost: max}
			got := budgetedIDs(ix, q.Words, &b)
			if !isSubsequence(got, full) {
				t.Fatalf("query %v budget %d: %v is not an ordered subset of %v", q.Words, max, got, full)
			}
			if !b.Exhausted() && len(got) != len(full) {
				t.Fatalf("query %v budget %d: short result (%d of %d) without Exhausted", q.Words, max, len(got), len(full))
			}
			if b.Exhausted() {
				truncations++
				if b.MaxCost > 0 && b.Spent() <= 0 {
					t.Fatalf("query %v budget %d: exhausted with Spent=%d", q.Words, max, b.Spent())
				}
			}
		}
	}
	if truncations == 0 {
		t.Fatal("no budget level ever truncated; test exercises nothing")
	}
}

// TestBudgetDeterministic: the same budget on the same index yields the
// same partial result.
func TestBudgetDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 95})
	ix := New(c.Ads, Options{})
	q := strings.Fields("the a of and to in for on with by")
	b1 := Budget{MaxCost: 50}
	got1 := budgetedIDs(ix, q, &b1)
	b2 := Budget{MaxCost: 50}
	got2 := budgetedIDs(ix, q, &b2)
	if len(got1) != len(got2) {
		t.Fatalf("same budget, different result sizes: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("same budget, different results at %d: %d vs %d", i, got1[i], got2[i])
		}
	}
	if b1.Spent() != b2.Spent() {
		t.Fatalf("same budget, different spend: %d vs %d", b1.Spent(), b2.Spent())
	}
}

// TestBudgetDeadline: an already-expired deadline under a fake clock
// trips within one deadline stride of work; a far deadline never trips.
func TestBudgetDeadline(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 96})
	ix := New(c.Ads, Options{})
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return base.Add(time.Second) }

	// Long queries over the most frequent words: popular words appear in
	// many word sets, so the locator-prefix pruning cannot cut the
	// enumeration short and enough work accrues to cross the deadline
	// stride.
	queries := longPopularQueries(c, 10, 12)

	expired := 0
	for _, q := range queries {
		b := Budget{Deadline: base, Now: clock}
		got := budgetedIDs(ix, q, &b)
		if b.Exhausted() {
			expired++
			// Charges past the deadline are bounded by the stride plus one
			// node's scan width (node granularity finishes the node).
			if b.Spent() > 4*deadlineStride {
				t.Fatalf("query %v: %d units charged past an expired deadline (stride %d)",
					q, b.Spent(), deadlineStride)
			}
		} else if full := columnarIDs(ix, q); len(got) != len(full) {
			t.Fatalf("query %v: short result without exhaustion", q)
		}
	}
	if expired == 0 {
		t.Fatal("expired deadline never tripped; corpus too small for the stride")
	}

	for _, q := range queries {
		b := Budget{Deadline: base.Add(time.Hour), Now: clock}
		budgetedIDs(ix, q, &b)
		if b.Exhausted() {
			t.Fatalf("query %v: far deadline tripped", q)
		}
	}
}

// TestBudgetCutoffApplied: queries past MaxQueryWords set the cutoff
// flag; short queries do not.
func TestBudgetCutoffApplied(t *testing.T) {
	ix := New(mustAds("a b", "c d", "e f", "g h"), Options{MaxWords: 2, MaxQueryWords: 4})
	long := strings.Fields("a b c d e f g h")
	var b Budget
	ix.AppendBroadRefs(nil, long, nil, nil, &b)
	if !b.CutoffApplied() {
		t.Fatal("8 indexed words over MaxQueryWords=4: cutoff not reported")
	}
	var b2 Budget
	ix.AppendBroadRefs(nil, strings.Fields("a b"), nil, nil, &b2)
	if b2.CutoffApplied() {
		t.Fatal("short query reported cutoff")
	}
}

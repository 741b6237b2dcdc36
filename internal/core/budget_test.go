package core

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
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

// TestBudgetLongQueryExact: a budgeted query past twelve indexed words
// walks every word and answers what brute-force containment answers,
// untruncated; so does a short one.
func TestBudgetLongQueryExact(t *testing.T) {
	ads := mustAds("a b", "c d", "e f", "g h")
	ix := New(ads, Options{MaxWords: 2})
	for _, q := range []string{"a b c d e f g h", "a b"} {
		words := strings.Fields(q)
		var b Budget
		got := budgetedIDs(ix, words, &b)
		if want := refBroadMatch(ads, words); !slices.Equal(got, want) || b.Exhausted() {
			t.Fatalf("query %q: %v (truncated %v), brute force %v", q, got, b.Exhausted(), want)
		}
	}
}

// TestBudgetWalkBound: a budgeted walk considers at most every subset a
// 12-word query has (Σ_{i=1..min(MaxWords,12)} C(12,i)) and is flagged
// truncated when it stops there, with the nodes it found scanned whole;
// unbudgeted, the same walk goes on. No query of at most 12 indexed words
// reaches the bound.
func TestBudgetWalkBound(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 20_000, Seed: 1})
	ix := New(c.Ads, Options{})
	if got := subsets(walkWords, ix.opts.MaxWords); got != 4082 || ix.walkLimit != got {
		t.Fatalf("walk limit %d, subsets(12, 10) = %d; want 4082", ix.walkLimit, got)
	}
	for _, width := range []int{64, 256} {
		truncated := 0
		wl := workload.GenerateAdversarial(c, workload.AdvOptions{NumQueries: 4, QueryWords: width, Seed: 3})
		for _, q := range wl.Queries {
			var bounded, whole costmodel.Counters
			var b Budget
			got := ix.AppendBroadRefs(nil, q.Words, &bounded, nil, &b)
			full := ix.AppendBroadRefs(nil, q.Words, &whole, nil, nil)
			if bounded.HashProbes > int64(ix.walkLimit) {
				t.Fatalf("%d-word query: the budgeted walk considered %d subsets, bound %d", width, bounded.HashProbes, ix.walkLimit)
			}
			if whole.HashProbes <= int64(ix.walkLimit) {
				continue // this query's walk ends by itself
			}
			truncated++
			if !b.Exhausted() {
				t.Fatalf("%d-word query stopped at the walk bound (%d of %d subsets) without being flagged truncated",
					width, bounded.HashProbes, whole.HashProbes)
			}
			if !isSubsequence(idsOfRefs(ix, got), idsOfRefs(ix, full)) {
				t.Fatalf("%d-word query: the truncated answer is no ordered subset of the whole one", width)
			}
		}
		if truncated == 0 {
			t.Fatalf("no %d-word query walked past the bound: the test exercises nothing", width)
		}
	}
	// Every subset of a 12-word query is within the bound.
	for _, q := range longPopularQueries(c, 5, 12) {
		var b Budget
		var counters costmodel.Counters
		got := ix.AppendBroadRefs(nil, q, &counters, nil, &b)
		if b.Exhausted() || !slices.Equal(idsOfRefs(ix, got), refBroadMatch(c.Ads, q)) {
			t.Fatalf("12-word query %v: truncated %v after %d subsets, or not exact", q, b.Exhausted(), counters.HashProbes)
		}
	}
}

// idsOfRefs returns the IDs of ix's records refs, in order.
func idsOfRefs(ix *Index, refs []Ref) []uint64 {
	ids := make([]uint64, len(refs))
	for i, r := range refs {
		ids[i] = ix.ID(r)
	}
	return ids
}

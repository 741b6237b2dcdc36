package workload

import (
	"math/rand"
	"sort"
)

// Drift streams model the ways a sponsored-search workload moves under
// the index's feet, for exercising periodic re-optimization:
// TopicDriftStream rotates which topic cluster is hot (editorial cycles,
// seasonal categories), ShiftStream slowly replaces the vocabulary
// itself (new products, new spellings), and FlashCrowdStream (see
// adversarial.go) spikes a single query. All are deterministic under
// their seed so sim schedules and benchmarks replay exactly.

// cumTable builds the cumulative frequency table used for frequency-
// proportional sampling. Returns nil when the workload is empty or has
// zero total frequency.
func (wl *Workload) cumTable() ([]int, int) {
	if len(wl.Queries) == 0 {
		return nil, 0
	}
	cum := make([]int, len(wl.Queries))
	total := 0
	for i := range wl.Queries {
		total += wl.Queries[i].Freq
		cum[i] = total
	}
	if total <= 0 {
		return nil, 0
	}
	return cum, total
}

func sample(wl *Workload, cum []int, total int, rng *rand.Rand) *Query {
	x := rng.Intn(total)
	return &wl.Queries[sort.SearchInts(cum, x+1)]
}

// TopicDriftStream expands the workload into n query occurrences where
// one "hot" topic dominates traffic and the hot topic rotates every
// period emissions. Topics are formed by striding the distinct queries
// into `topics` buckets (each topic gets a slice of both head and tail
// queries); within any window the hot topic receives ~90% of traffic and
// the remaining 10% is frequency-proportional background over the whole
// workload. period <= 0 defaults to one rotation per topic across the
// stream; topics <= 1 degenerates to a plain Stream. Deterministic under
// seed.
func (wl *Workload) TopicDriftStream(n, period, topics int, seed int64) []*Query {
	cum, total := wl.cumTable()
	if cum == nil || n <= 0 {
		return nil
	}
	if topics > len(wl.Queries) {
		topics = len(wl.Queries)
	}
	if topics <= 1 {
		return wl.Stream(n, seed)
	}
	if period <= 0 {
		period = (n + topics - 1) / topics
	}
	// topicQueries[t] lists the indexes of topic t's distinct queries;
	// topicCum[t] is its private cumulative table.
	topicQueries := make([][]int, topics)
	topicCum := make([][]int, topics)
	topicTotal := make([]int, topics)
	for i := range wl.Queries {
		t := i % topics
		topicQueries[t] = append(topicQueries[t], i)
		topicTotal[t] += wl.Queries[i].Freq
		topicCum[t] = append(topicCum[t], topicTotal[t])
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Query, 0, n)
	for i := 0; i < n; i++ {
		t := (i / period) % topics
		if topicTotal[t] > 0 && rng.Intn(10) != 0 {
			x := rng.Intn(topicTotal[t])
			j := sort.SearchInts(topicCum[t], x+1)
			out = append(out, &wl.Queries[topicQueries[t][j]])
			continue
		}
		out = append(out, sample(wl, cum, total, rng))
	}
	return out
}

// ShiftStream expands into n occurrences that slowly migrate from this
// workload's vocabulary to another's: emission i draws from `to` with
// probability i/(n-1), so the stream starts as pure `wl` traffic and
// ends as pure `to` traffic with a long mixed middle — the slow
// vocabulary shift of query language changing under a frozen index.
// Deterministic under seed.
func (wl *Workload) ShiftStream(to *Workload, n int, seed int64) []*Query {
	fromCum, fromTotal := wl.cumTable()
	toCum, toTotal := to.cumTable()
	if n <= 0 || (fromCum == nil && toCum == nil) {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Query, 0, n)
	for i := 0; i < n; i++ {
		p := 0.0
		if n > 1 {
			p = float64(i) / float64(n-1)
		}
		useTo := rng.Float64() < p
		if (useTo && toCum != nil) || fromCum == nil {
			out = append(out, sample(to, toCum, toTotal, rng))
			continue
		}
		out = append(out, sample(wl, fromCum, fromTotal, rng))
	}
	return out
}

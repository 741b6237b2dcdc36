package core

import "time"

// deadlineStride is how many charged cost units may elapse between
// deadline checks. The budget's unit charges land on every considered
// subset probe and every scanned record, so a stride of 256 bounds the
// overshoot past the deadline to a few microseconds of work while
// keeping the clock read far off the per-probe fast path.
const deadlineStride = 256

// Budget bounds the work one broad-match query may perform. The query
// path charges it one unit per considered subset probe and one unit per
// record a node scan examines, and stops enumerating — at node
// granularity, never mid-node — once the budget is exhausted. The partial
// results accumulated to that point are returned; they are always a
// correct subset of the full match set (every returned ad is fully
// verified), so truncated answers remain oracle-checkable.
//
// The subset enumeration is exponential in query length, so a budgeted
// walk is also bounded in itself, whatever MaxCost says: it stops after
// Σ_{i=1..min(MaxWords,12)} C(12,i) considered subsets (4 082 at
// MaxWords 10), every subset a 12-word query has, so no query of at most
// 12 indexed words can reach it. A longer query that does has its walk
// end there: the nodes found so far are scanned whole and the budget is
// exhausted, so the answer is flagged as truncated. Each walk counts its
// own subsets: a rewritten query's variants are walks of their own.
//
// The check is a counter compare plus a periodic clock read — no
// context.Context, no channel, nothing in the inner loop but
// predictable integer work.
//
// A Budget is single-use and not safe for concurrent use: callers
// construct one per query (or reset a pooled one with Init) and read
// Spent/Exhausted after the query returns.
type Budget struct {
	// MaxCost is the unit budget (subset probes + records scanned);
	// zero or negative means unlimited cost.
	MaxCost int64
	// Deadline, when non-zero, exhausts the budget once the clock
	// passes it. Checked every deadlineStride charged units.
	Deadline time.Time
	// Now is the clock used for Deadline checks; nil means time.Now.
	// Tests inject a fake clock here.
	Now func() time.Time

	cost      int64
	unchecked int64
	exhausted bool
}

// Init resets b for a fresh query with the given limits, keeping the
// clock seam. Pooled callers use this instead of allocating.
func (b *Budget) Init(maxCost int64, deadline time.Time) {
	b.MaxCost = maxCost
	b.Deadline = deadline
	b.cost = 0
	b.unchecked = 0
	b.exhausted = false
}

// Charge records n units of work and reports whether the query may
// continue. Once exhausted it stays exhausted and stops accumulating,
// so Spent reflects the cost at the moment the budget tripped.
func (b *Budget) Charge(n int64) bool {
	if b.exhausted {
		return false
	}
	b.cost += n
	if b.MaxCost > 0 && b.cost > b.MaxCost {
		b.exhausted = true
		return false
	}
	if !b.Deadline.IsZero() {
		b.unchecked += n
		if b.unchecked >= deadlineStride {
			b.unchecked = 0
			now := b.Now
			if now == nil {
				now = time.Now
			}
			if !now().Before(b.Deadline) {
				b.exhausted = true
				return false
			}
		}
	}
	return true
}

// Spent returns the units charged so far.
func (b *Budget) Spent() int64 { return b.cost }

// Exhausted reports whether the budget tripped (cost, deadline or the
// walk bound); a query that ran under an exhausted budget returned
// partial results.
func (b *Budget) Exhausted() bool { return b.exhausted }

// Admission control: a concurrency semaphore with a bounded wait queue
// and optional CoDel-style queue-delay shedding.
//
// The serving layer admits at most MaxInflight concurrent queries; four
// times as many more may wait (bounded by their request deadline). Anything
// beyond that is shed immediately with 503 + Retry-After rather than
// queued — under overload an unbounded queue only converts saturation
// into unbounded tail latency (every queued request eventually times out
// anyway), while early shedding keeps the latency of admitted requests
// flat, which is the paper's tail-latency story (Figure 9) applied to an
// overloaded serving tier.
//
// The queue bound alone is a poor overload signal: a short queue that
// never drains still means every admitted request pays the full queue
// wait. The shedding layer therefore watches the *minimum* queue delay
// over a sliding interval (the CoDel insight: the minimum, not the mean,
// distinguishes a standing queue from a harmless burst). When the
// minimum stays above the target for a full interval the limiter starts
// shedding queue entrants; it stops once the minimum falls back to half
// the target (hysteresis, so the state does not flap at the boundary).
// Requests that find a free slot are always admitted — shedding drains
// standing queues, it never caps throughput below capacity.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Acquire when the wait queue is at capacity;
// the caller should shed the request (503).
var ErrQueueFull = errors.New("server: admission queue full")

// ErrOverload is returned by Acquire when queue-delay shedding is active:
// the queue has been standing (minimum wait above target for a full
// interval), so joining it would only buy a guaranteed wait. The caller
// should shed the request (503 + Retry-After).
var ErrOverload = errors.New("server: shedding load, queue delay above target")

// Defaults for the shedding knobs.
const (
	// DefaultShedWindow is the sliding interval over which the minimum
	// queue delay is tracked.
	DefaultShedWindow = 100 * time.Millisecond
)

// Limiter is a concurrency semaphore with a bounded wait queue and
// optional queue-delay shedding.
type Limiter struct {
	slots    chan struct{}
	waiters  atomic.Int64
	maxQueue int64

	// Shedding state; target <= 0 disables it (pure semaphore).
	target time.Duration
	window time.Duration
	now    func() time.Time

	mu            sync.Mutex
	intervalStart time.Time
	intervalMin   time.Duration
	haveSample    bool
	shedding      bool

	shedOverload  atomic.Uint64
	shedQueueFull atomic.Uint64
}

// NewLimiter admits up to maxInflight concurrent holders with up to
// maxQueue waiters. maxInflight < 1 is raised to 1; maxQueue < 0 is
// treated as 0 (shed as soon as all slots are busy). With target > 0 it
// sheds by queue delay, CoDel-style: once the minimum queue wait stays
// above target for a full DefaultShedWindow, new queue entrants are
// rejected with ErrOverload until the minimum falls back to target/2.
func NewLimiter(maxInflight, maxQueue int, target time.Duration) *Limiter {
	return NewLimiterShedAt(maxInflight, maxQueue, target, 0, time.Now)
}

// NewLimiterShedAt is NewLimiter with the interval width and the clock
// exposed, so tests drive the shedding state machine on a simulated
// clock without wall sleeps. window 0 selects DefaultShedWindow; now must
// not be nil.
func NewLimiterShedAt(maxInflight, maxQueue int, target, window time.Duration, now func() time.Time) *Limiter {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	if window <= 0 {
		window = DefaultShedWindow
	}
	return &Limiter{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		target:   target,
		window:   window,
		now:      now,
	}
}

// TryAcquire takes a free slot if there is one, without queueing: the
// fast path of Acquire, for callers that build their context only when
// they have to wait. A zero-delay sample is the signal that the standing
// queue has drained, so shedding exits even if no request ever waits
// again. On success the caller must Release exactly once.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		l.note(0)
		return true
	default:
		return false
	}
}

// Acquire obtains a slot, waiting in the bounded queue if none is free.
// It returns ErrOverload when delay shedding is active, ErrQueueFull
// when the queue is at capacity, and ctx.Err() when the context is done
// before a slot frees. On success the caller must Release exactly once.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l.TryAcquire() {
		return nil
	}
	if l.sheddingNow() {
		l.shedOverload.Add(1)
		return ErrOverload
	}
	// The queue wait clock starts before the waiter count is published,
	// so an observer that sees Waiting() > 0 knows the sample's start
	// time is already pinned (simclock tests rely on this ordering).
	var start time.Time
	if l.target > 0 {
		start = l.now()
	}
	// Reserve a queue position. The counter may transiently overshoot
	// maxQueue by concurrent arrivals between Load and Add; the recheck
	// after Add keeps the queue bound strict.
	if l.waiters.Add(1) > l.maxQueue {
		l.waiters.Add(-1)
		l.shedQueueFull.Add(1)
		return ErrQueueFull
	}
	defer l.waiters.Add(-1)
	select {
	case l.slots <- struct{}{}:
		if l.target > 0 {
			l.note(l.now().Sub(start))
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot obtained by a successful Acquire.
func (l *Limiter) Release() {
	select {
	case <-l.slots:
	default:
		panic("server: Release without Acquire")
	}
}

// Waiting returns the current number of queued acquirers.
func (l *Limiter) Waiting() int64 { return l.waiters.Load() }

// Shedding reports whether queue-delay shedding is currently active.
func (l *Limiter) Shedding() bool { return l.sheddingNow() }

// ShedOverload returns how many acquisitions were rejected by delay
// shedding; ShedQueueFull how many by the hard queue bound.
func (l *Limiter) ShedOverload() uint64  { return l.shedOverload.Load() }
func (l *Limiter) ShedQueueFull() uint64 { return l.shedQueueFull.Load() }

// note records one queue-delay sample and rolls the CoDel interval:
// each window keeps only the minimum observed delay, and at the window
// boundary that minimum decides the shedding state — above target
// enters shedding, at or below target/2 exits, in between keeps the
// current state (hysteresis).
func (l *Limiter) note(d time.Duration) {
	if l.target <= 0 {
		return
	}
	now := l.now()
	l.mu.Lock()
	if l.intervalStart.IsZero() {
		l.intervalStart = now
	}
	if !l.haveSample || d < l.intervalMin {
		l.intervalMin = d
		l.haveSample = true
	}
	if now.Sub(l.intervalStart) >= l.window {
		if l.haveSample {
			if l.intervalMin > l.target {
				l.shedding = true
			} else if l.intervalMin <= l.target/2 {
				l.shedding = false
			}
		}
		l.intervalStart = now
		l.haveSample = false
	}
	l.mu.Unlock()
}

func (l *Limiter) sheddingNow() bool {
	if l.target <= 0 {
		return false
	}
	l.mu.Lock()
	s := l.shedding
	l.mu.Unlock()
	return s
}

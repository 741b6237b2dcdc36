package server

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"adindex/internal/simclock"
)

// The shedding tests drive the CoDel state machine on a simulated clock:
// no wall sleeps, fully deterministic. The choreography per sample is
// always the same — park a waiter behind a held slot, advance the fake
// clock by the queue delay to simulate, release the slot, and join the
// waiter so the sample is recorded before the clock moves again.

// spinUntilWaiting blocks (busy-yielding, no sleeps) until the limiter
// reports n queued waiters. Acquire pins the sample's start time before
// publishing the waiter count, so once this returns, advancing the fake
// clock is race-free.
func spinUntilWaiting(t *testing.T, l *Limiter, n int64) {
	t.Helper()
	for i := 0; i < 1e8; i++ {
		if l.Waiting() == n {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("limiter never reached %d waiters", n)
}

// parkWaiter starts an Acquire in a goroutine and returns its result
// channel once the waiter is queued.
func parkWaiter(t *testing.T, l *Limiter) chan error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- l.Acquire(context.Background()) }()
	spinUntilWaiting(t, l, 1)
	return ch
}

// sampleDelay records one queue-delay sample of d: the caller must hold
// the only slot; the helper parks a waiter, advances the clock by d,
// releases, and joins the waiter — which then holds the slot.
func sampleDelay(t *testing.T, l *Limiter, clk *simclock.Fake, d time.Duration) {
	t.Helper()
	ch := parkWaiter(t, l)
	clk.Advance(d)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatalf("parked waiter failed: %v", err)
	}
}

func TestLimiterShedEnterAndExit(t *testing.T) {
	clk := simclock.NewFake()
	const target, window = 10 * time.Millisecond, 100 * time.Millisecond
	l := NewLimiterShedAt(1, 4, target, window, clk.Now)

	// Interval 1: a zero fast-path sample plus a long wait — the MIN is
	// zero, so the interval must NOT trigger shedding (a burst with an
	// empty-queue moment is not a standing queue).
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	sampleDelay(t, l, clk, 50*time.Millisecond)
	sampleDelay(t, l, clk, 60*time.Millisecond) // t=110ms: interval rolls, min=0
	if l.Shedding() {
		t.Fatal("shedding after an interval whose min delay was zero")
	}

	// Interval 2: every sample far above target → shedding enters at the
	// rollover.
	sampleDelay(t, l, clk, 120*time.Millisecond) // t=230ms: rollover, min=120ms
	if !l.Shedding() {
		t.Fatal("standing queue above target did not trigger shedding")
	}

	// While shedding, a queue entrant is rejected with the typed error...
	if err := l.Acquire(context.Background()); !errors.Is(err, ErrOverload) {
		t.Fatalf("Acquire under shedding = %v, want ErrOverload", err)
	}
	if l.ShedOverload() != 1 {
		t.Fatalf("ShedOverload = %d, want 1", l.ShedOverload())
	}
	// ...but a free slot is always admitted: shedding drains queues, it
	// does not cap throughput.
	l.Release()
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("fast-path admit under shedding failed: %v", err)
	}

	// Exit: a full interval whose min is ≤ target/2 (zero fast-path
	// samples after the queue drained) flips the state back.
	l.Release()
	clk.Advance(window)
	if err := l.Acquire(context.Background()); err != nil { // rollover, min=0
		t.Fatal(err)
	}
	if l.Shedding() {
		t.Fatal("shedding did not exit after a drained interval")
	}
	// Queueing works normally again.
	ch := parkWaiter(t, l)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatalf("post-recovery queued acquire failed: %v", err)
	}
	l.Release()
}

func TestLimiterShedHysteresis(t *testing.T) {
	clk := simclock.NewFake()
	const target, window = 10 * time.Millisecond, 100 * time.Millisecond
	l := NewLimiterShedAt(1, 4, target, window, clk.Now)

	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Roll into a fresh interval with a min of zero (not shedding).
	sampleDelay(t, l, clk, 101*time.Millisecond)
	if l.Shedding() {
		t.Fatal("unexpected shedding")
	}
	// Interval whose min (7ms) sits in the hysteresis band
	// (target/2, target]: the state must hold, not flap.
	sampleDelay(t, l, clk, 7*time.Millisecond)
	sampleDelay(t, l, clk, 101*time.Millisecond) // rollover, min=7ms
	if l.Shedding() {
		t.Fatal("hysteresis band flipped shedding on")
	}
	l.Release()
}

func TestLimiterShedDisabledByDefault(t *testing.T) {
	clk := simclock.NewFake()
	l := NewLimiterShedAt(1, 1, 0, 0, clk.Now) // target 0: plain semaphore
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Enormous queue delays never shed when the target is unset.
	sampleDelay(t, l, clk, time.Hour)
	sampleDelay(t, l, clk, time.Hour)
	if l.Shedding() {
		t.Fatal("shedding with target=0")
	}
	l.Release()
	if l.ShedOverload() != 0 {
		t.Fatal("counted sheds with shedding disabled")
	}
}

func TestLimiterQueueFullCounter(t *testing.T) {
	l := NewLimiter(1, 0, 0)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if l.ShedQueueFull() != 1 {
		t.Fatalf("ShedQueueFull = %d, want 1", l.ShedQueueFull())
	}
	l.Release()
}

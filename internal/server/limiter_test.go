package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLimiterFastPath(t *testing.T) {
	l := NewLimiter(2, 0, 0)
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Both slots held, zero queue: immediate shed.
	if err := l.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Acquire = %v, want ErrQueueFull", err)
	}
	l.Release()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("Acquire after Release = %v", err)
	}
	l.Release()
	l.Release()
}

func TestLimiterQueueBound(t *testing.T) {
	l := NewLimiter(1, 2, 0)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the queue with two waiters.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- l.Acquire(ctx) }()
	}
	// Wait until both are queued.
	for l.Waiting() != 2 {
		time.Sleep(time.Millisecond)
	}
	// Third waiter exceeds the bound: shed, not queued.
	if err := l.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Acquire with full queue = %v, want ErrQueueFull", err)
	}
	// Release the slot twice: both queued waiters are admitted in turn.
	l.Release()
	if err := <-errs; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	l.Release()
	if err := <-errs; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	l.Release()
}

func TestLimiterDeadlineInQueue(t *testing.T) {
	l := NewLimiter(1, 4, 0)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire past deadline = %v, want DeadlineExceeded", err)
	}
	if l.Waiting() != 0 {
		t.Errorf("waiter leaked: Waiting = %d", l.Waiting())
	}
}

// TestLimiterSaturation hammers the limiter from many goroutines and
// checks the two invariants that matter under load: concurrent holders
// never exceed maxInflight, and every Acquire either succeeds (and
// releases) or sheds — nothing deadlocks.
func TestLimiterSaturation(t *testing.T) {
	const maxInflight, maxQueue, goroutines = 4, 8, 64
	l := NewLimiter(maxInflight, maxQueue, 0)
	var mu sync.Mutex
	inflight, peak, admitted, shed := 0, 0, 0, 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				err := l.Acquire(ctx)
				cancel()
				if err != nil {
					mu.Lock()
					shed++
					mu.Unlock()
					continue
				}
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				admitted++
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				inflight--
				mu.Unlock()
				l.Release()
			}
		}()
	}
	wg.Wait()
	if peak > maxInflight {
		t.Errorf("peak concurrency %d exceeded limit %d", peak, maxInflight)
	}
	if admitted == 0 {
		t.Error("nothing admitted")
	}
	t.Logf("admitted=%d shed=%d peak=%d", admitted, shed, peak)
}

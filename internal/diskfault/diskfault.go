// Package diskfault is a deterministic disk fault injector: the
// filesystem twin of internal/faultnet. It wraps any durable.FS and
// perturbs the mutating operations flowing through it — torn writes,
// bit flips, short writes, fsync errors, and a crash-at-step schedule
// that simulates the process dying at an exact point in the write
// sequence. All randomness is seeded, so every failure reproduces.
package diskfault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"adindex/internal/durable"
)

// ErrCrashed is returned by every operation after the crash point
// fires: the simulated process is dead and nothing further reaches disk.
var ErrCrashed = errors.New("diskfault: simulated crash")

// Plan describes the faults to inject. The zero value injects nothing.
// All indices are 1-based; zero disables that fault.
type Plan struct {
	// CrashAtStep crashes at the Nth mutating operation (Create,
	// OpenAppend, Write, Sync, Rename, Remove, Truncate, SyncDir). A
	// crashing Write first persists a torn prefix of its buffer (length
	// controlled by TornFraction); every operation after the crash fails
	// with ErrCrashed.
	CrashAtStep int
	// TornFraction is the fraction [0,1] of a crashing Write's buffer
	// that reaches disk. Negative selects a seeded random prefix.
	TornFraction float64
	// FlipBitAtWrite silently flips one seeded-random bit in the Nth
	// Write's buffer (media corruption: the write "succeeds").
	FlipBitAtWrite int
	// ShortWriteAt makes the Nth Write persist only half its buffer and
	// report an error.
	ShortWriteAt int
	// SyncErrAt makes the Nth Sync (file or directory) fail without
	// flushing.
	SyncErrAt int
	// Seed drives the injector's RNG (torn lengths, flipped bit
	// positions).
	Seed int64
}

// Injector is a durable.FS that applies a Plan to an inner FS.
type Injector struct {
	inner durable.FS

	mu      sync.Mutex
	plan    Plan
	rng     *rand.Rand
	steps   int
	writes  int
	syncs   int
	crashed bool
}

// New wraps inner (nil selects the OS filesystem) with the given plan.
func New(inner durable.FS, plan Plan) *Injector {
	if inner == nil {
		inner = durable.OSFS{}
	}
	return &Injector{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Arm replaces the injector's plan and resets its counters, crash flag,
// and RNG (reseeded from plan.Seed). It lets one long-lived injector
// stage successive fault scenarios against the same store — the
// simulation harness arms a fresh crash plan before each simulated
// crash-restart instead of rebuilding the FS stack.
func (in *Injector) Arm(plan Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = plan
	in.rng = rand.New(rand.NewSource(plan.Seed))
	in.steps = 0
	in.writes = 0
	in.syncs = 0
	in.crashed = false
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// step accounts one mutating operation. It returns (crashNow, err):
// err non-nil means the operation must fail immediately (already dead);
// crashNow means this very operation is the one that dies mid-flight.
func (in *Injector) step() (bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return false, ErrCrashed
	}
	in.steps++
	if in.plan.CrashAtStep > 0 && in.steps == in.plan.CrashAtStep {
		in.crashed = true
		return true, nil
	}
	return false, nil
}

// MkdirAll implements durable.FS. Directory creation is setup, not part
// of the write sequence under test, so it is not a counted step.
func (in *Injector) MkdirAll(dir string, perm os.FileMode) error {
	in.mu.Lock()
	dead := in.crashed
	in.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return in.inner.MkdirAll(dir, perm)
}

// Open implements durable.FS (reads are not faulted, only refused after
// a crash).
func (in *Injector) Open(name string) (durable.File, error) {
	in.mu.Lock()
	dead := in.crashed
	in.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return in.inner.Open(name)
}

// Create implements durable.FS.
func (in *Injector) Create(name string) (durable.File, error) {
	crash, err := in.step()
	if err != nil {
		return nil, err
	}
	if crash {
		return nil, ErrCrashed
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

// OpenAppend implements durable.FS.
func (in *Injector) OpenAppend(name string) (durable.File, error) {
	crash, err := in.step()
	if err != nil {
		return nil, err
	}
	if crash {
		return nil, ErrCrashed
	}
	f, err := in.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

// Rename implements durable.FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	crash, err := in.step()
	if err != nil {
		return err
	}
	if crash {
		// The crash lands before the rename takes effect: the classic
		// "tmp file written but never published" window.
		return ErrCrashed
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove implements durable.FS.
func (in *Injector) Remove(name string) error {
	crash, err := in.step()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return in.inner.Remove(name)
}

// Truncate implements durable.FS.
func (in *Injector) Truncate(name string, size int64) error {
	crash, err := in.step()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return in.inner.Truncate(name, size)
}

// ReadDir implements durable.FS.
func (in *Injector) ReadDir(dir string) ([]string, error) {
	in.mu.Lock()
	dead := in.crashed
	in.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return in.inner.ReadDir(dir)
}

// SyncDir implements durable.FS.
func (in *Injector) SyncDir(dir string) error {
	crash, err := in.step()
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	return in.inner.SyncDir(dir)
}

// faultFile routes a file's mutating calls through the injector.
type faultFile struct {
	in   *Injector
	f    durable.File
	name string
}

// Read implements durable.File.
func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

// Write implements durable.File: the richest fault site — crash with a
// torn prefix, silent bit flip, or short write, per the plan.
func (ff *faultFile) Write(p []byte) (int, error) {
	in := ff.in
	crash, err := in.step()
	if err != nil {
		return 0, err
	}
	in.mu.Lock()
	in.writes++
	wn := in.writes
	plan := in.plan
	var torn int
	var flipByte int
	var flipMask byte
	if crash {
		switch {
		case plan.TornFraction < 0:
			torn = in.rng.Intn(len(p) + 1)
		default:
			torn = int(plan.TornFraction * float64(len(p)))
		}
		if torn > len(p) {
			torn = len(p)
		}
	}
	if plan.FlipBitAtWrite == wn && len(p) > 0 {
		flipByte = in.rng.Intn(len(p))
		flipMask = 1 << uint(in.rng.Intn(8))
	}
	in.mu.Unlock()

	if crash {
		if torn > 0 {
			ff.f.Write(p[:torn])
		}
		return torn, ErrCrashed
	}
	if flipMask != 0 {
		q := make([]byte, len(p))
		copy(q, p)
		q[flipByte] ^= flipMask
		p = q
	}
	if plan.ShortWriteAt == wn {
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, fmt.Errorf("diskfault: short write on %s (%d of %d bytes)", ff.name, n, len(p))
	}
	return ff.f.Write(p)
}

// Sync implements durable.File.
func (ff *faultFile) Sync() error {
	in := ff.in
	crash, err := in.step()
	if err != nil {
		return err
	}
	if crash {
		// Data written since the last successful sync may or may not be
		// durable; the injector models the pessimistic case by leaving
		// whatever the inner file already has.
		return ErrCrashed
	}
	in.mu.Lock()
	in.syncs++
	sn := in.syncs
	failAt := in.plan.SyncErrAt
	in.mu.Unlock()
	if failAt == sn {
		return fmt.Errorf("diskfault: injected fsync error on %s", ff.name)
	}
	return ff.f.Sync()
}

// Close implements durable.File. Closing is never faulted: a dead
// process's descriptors close anyway.
func (ff *faultFile) Close() error { return ff.f.Close() }

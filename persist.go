package adindex

import (
	"fmt"
	"time"

	"adindex/internal/core"
	"adindex/internal/durable"
)

// DurableConfig configures crash-safe persistence for OpenDurable.
type DurableConfig struct {
	// FS is the filesystem seam; nil selects the real OS filesystem.
	// Tests inject internal/diskfault here.
	FS durable.FS
	// Sync is the WAL sync policy. The zero value (durable.SyncAlways)
	// fsyncs every mutation before it is acknowledged.
	Sync durable.SyncMode
	// SnapshotEvery rotates the WAL into a fresh snapshot once this many
	// records accumulate. 0 selects DefaultSnapshotEvery; negative
	// disables auto-rotation (Optimize and Persist still rotate).
	SnapshotEvery int
	// KeepGenerations is how many snapshot generations are retained
	// (minimum and default 2: current plus one fallback).
	KeepGenerations int
	// Bootstrap seeds a fresh (empty) data directory: the ads are built
	// into the index and written as the initial snapshot generation in
	// one pass, instead of WAL-logging them one by one. Ignored when the
	// directory already holds state — disk wins over flags.
	Bootstrap []Ad
}

// DefaultSnapshotEvery is the default DurableConfig.SnapshotEvery.
const DefaultSnapshotEvery = 65536

func (dc DurableConfig) snapshotEvery() int {
	if dc.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	if dc.SnapshotEvery < 0 {
		return 0
	}
	return dc.SnapshotEvery
}

// OpenDurable opens (or initializes) the durable index state in dir and
// returns a live index positioned exactly where the previous process
// left off: the newest verifiable snapshot plus every fsync'd WAL record
// on top of it, replayed through the real mutation path so the epoch and
// overlay state match what live execution would have produced.
//
// Recovery tolerates a torn or corrupt WAL tail (dropping only records
// past the first bad frame) and falls back to the previous snapshot
// generation when the newest fails verification. Inspect the returned
// RecoveryReport — Degraded() means acknowledged state was lost and the
// caller should decide whether serving is acceptable (cmd/adserve
// refuses unless -allow-partial-recovery).
//
// The returned index logs every Insert/Delete to the WAL before applying
// it and snapshots on Optimize, ApplyMapping, Persist, and every
// SnapshotEvery records. Call Close to flush and release the store.
func OpenDurable(dir string, opts Options, dc DurableConfig) (*Index, *durable.RecoveryReport, error) {
	store, rec, err := durable.Open(dir, durable.Options{FS: dc.FS, Sync: dc.Sync, Keep: dc.KeepGenerations})
	if err != nil {
		return nil, nil, err
	}
	ix := &Index{
		opts:     opts,
		observed: newObserveSampler(opts.maxObserved()),
		rewriter: opts.planner(),
	}
	// A fresh directory given a corpus starts from that corpus, not from
	// the empty state the directory recovered to.
	bootstrap := rec.Report.Fresh && len(dc.Bootstrap) > 0
	var base *core.Index
	buildStart := time.Now()
	if bootstrap {
		base = core.New(dc.Bootstrap, opts.coreOptions())
	} else if base, err = core.NewWithMapping(rec.Ads, rec.Mapping, opts.coreOptions()); err != nil {
		store.Close()
		return nil, nil, fmt.Errorf("adindex: rebuild from snapshot: %w", err)
	}
	ix.noteBuild(buildStart)
	ix.publish(&snapshot{base: base, epoch: rec.Epoch})
	// Replay the WAL through the real mutation path — the store is not
	// attached yet, so replay is not re-logged. Each record advances the
	// epoch exactly as the live mutation did.
	ix.mu.Lock()
	for i := range rec.Records {
		r := &rec.Records[i]
		switch r.Op {
		case durable.OpInsert:
			ix.insertLocked(r.Ad)
		case durable.OpDelete:
			ix.deleteLocked(r.ID, r.Phrase)
		}
	}
	ix.mu.Unlock()

	ix.store = store
	ix.snapshotEvery = dc.snapshotEvery()
	report := rec.Report

	if bootstrap {
		// The first generation holds the base's ads in ID order. A corpus
		// already in strictly increasing ID order is that list as it stands.
		ads := dc.Bootstrap
		for i := 1; i < len(ads); i++ {
			if ads[i].ID <= ads[i-1].ID {
				ads = ix.snap.Load().materialize()
				break
			}
		}
		if err := store.WriteSnapshot(ads, base.Mapping(), 0); err != nil {
			ix.Close()
			return nil, nil, fmt.Errorf("adindex: bootstrap snapshot: %w", err)
		}
	} else if report.NeedsRotation {
		// Recovery salvaged around damage (generation fallback or a
		// mid-chain WAL stop): fold everything into a fresh, fully
		// verified snapshot before accepting new writes.
		ix.mu.Lock()
		err := ix.snapshotLocked()
		ix.mu.Unlock()
		if err != nil {
			ix.Close()
			return nil, nil, fmt.Errorf("adindex: post-recovery snapshot: %w", err)
		}
	}
	return ix, &report, nil
}

// Durable reports whether the index persists mutations to disk.
func (ix *Index) Durable() bool { return ix.store != nil }

// Persist forces a snapshot rotation now: the full state is written as a
// new generation and the WAL truncated. No-op on a non-durable index.
func (ix *Index) Persist() error {
	if ix.store == nil {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.snapshotLocked(); err != nil {
		ix.notePersistErr(err)
		return err
	}
	return nil
}

// SyncDurable forces the WAL to stable storage. Meaningful under
// durable.SyncNone, where appends are otherwise flushed at the OS's
// leisure; the server calls it after draining requests on shutdown.
func (ix *Index) SyncDurable() error {
	if ix.store == nil {
		return nil
	}
	return ix.store.Sync()
}

// DurableStats returns live persistence counters; ok is false for a
// non-durable index.
func (ix *Index) DurableStats() (stats durable.StoreStats, ok bool) {
	if ix.store == nil {
		return durable.StoreStats{}, false
	}
	return ix.store.Stats(), true
}

// CrashForTesting simulates the process dying at this exact point: the
// durable store's WAL descriptor is dropped without the close-time sync,
// so only already-synced bytes survive on disk, and the in-memory index
// must be discarded (its unpersisted state died with the "process").
// Reopen the directory with OpenDurable to recover. Combined with a
// diskfault.Injector armed with a CrashAtStep plan this gives the
// simulation harness deterministic crash points, including torn final
// frames. No-op on a non-durable index.
func (ix *Index) CrashForTesting() {
	if ix.store == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.store.Crash()
}

// Close flushes and closes the durable store (no-op for an in-memory
// index). The index must not be mutated afterwards; reads keep working
// against the last published snapshot.
func (ix *Index) Close() error {
	if ix.store == nil {
		return nil
	}
	return ix.store.Close()
}

package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"adindex/internal/corpus"
)

// Options configures a Store. The zero value selects the OS filesystem,
// fsync-per-batch WAL appends, and two retained snapshot generations.
type Options struct {
	// FS is the filesystem seam; nil selects OSFS.
	FS FS
	// Sync is the WAL append sync policy.
	Sync SyncMode
}

// keepGens is how many snapshot generations (with their WALs) a rotation
// retains, deleting older files: the newest generation plus one fallback.
const keepGens = 2

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// RecoveryReport describes what Open found and salvaged. It is the
// operator-facing summary logged by cmd/adserve and served in /metrics.
type RecoveryReport struct {
	// Fresh reports that the directory held no prior state.
	Fresh bool `json:"fresh"`
	// SnapshotGen is the generation actually loaded (0 = empty base).
	SnapshotGen uint64 `json:"snapshot_gen"`
	// SnapshotAds is the ad count in the loaded snapshot.
	SnapshotAds int `json:"snapshot_ads"`
	// SnapshotEpoch is the epoch recorded in the loaded snapshot.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// SnapshotsSkipped counts newer generations that failed verification
	// and were skipped (fallback to an older generation).
	SnapshotsSkipped int `json:"snapshots_skipped"`
	// SkipReasons details each skipped generation.
	SkipReasons []string `json:"skip_reasons,omitempty"`
	// WALFiles is the number of WAL files in the replayed chain.
	WALFiles int `json:"wal_files"`
	// RecordsReplayed is the number of WAL records recovered.
	RecordsReplayed int `json:"records_replayed"`
	// Torn reports that a WAL ended in a torn or corrupt frame; the
	// frames before it were recovered and the tail dropped.
	Torn bool `json:"torn"`
	// TornDetail describes the first bad frame.
	TornDetail string `json:"torn_detail,omitempty"`
	// CorruptRecords reports that the bad frame was a complete record
	// failing its checksum — unlike a torn tail (an incomplete final
	// frame, the normal artifact of a crash mid-append), a corrupt
	// complete frame means fsync-acknowledged data was lost.
	CorruptRecords bool `json:"corrupt_records"`
	// DroppedBytes counts WAL bytes discarded after the first bad frame
	// (the exact record count inside them is unknowable).
	DroppedBytes int64 `json:"dropped_bytes"`
	// DroppedWALFiles counts whole newer WAL files discarded because an
	// earlier file in the chain had a bad frame.
	DroppedWALFiles int `json:"dropped_wal_files"`
	// NeedsRotation reports that recovery salvaged around damage and a
	// fresh snapshot should be written before serving (OpenDurable does
	// this automatically).
	NeedsRotation bool `json:"needs_rotation"`
}

// Degraded reports whether recovery lost acknowledged state or fell
// back past the newest generation — the condition cmd/adserve refuses to
// serve without -allow-partial-recovery. A plain torn tail does NOT
// degrade: the incomplete final frame was never fsync-acknowledged, so
// truncating it recovers exactly the state the writer could rely on.
func (r *RecoveryReport) Degraded() bool {
	return r.SnapshotsSkipped > 0 || r.DroppedWALFiles > 0 || r.CorruptRecords
}

// RecoveredState is everything Open salvaged from disk: the snapshot
// state plus the WAL records to replay on top of it, in order.
type RecoveredState struct {
	Ads     []corpus.Ad
	Mapping map[string][]string
	Epoch   uint64
	Records []Record
	Report  RecoveryReport
}

// StoreStats are live persistence counters for /metrics.
type StoreStats struct {
	// Gen is the current snapshot generation.
	Gen uint64 `json:"gen"`
	// Records counts WAL records appended by this process.
	Records uint64 `json:"records"`
	// RecordsSinceSnapshot counts WAL records (replayed + appended)
	// accumulated since the last snapshot; the auto-snapshot threshold
	// compares against it.
	RecordsSinceSnapshot int `json:"records_since_snapshot"`
	// Syncs counts WAL fsyncs issued.
	Syncs uint64 `json:"syncs"`
	// WALBytes is the size of the current WAL file.
	WALBytes int64 `json:"wal_bytes"`
	// Snapshots counts snapshots written by this process.
	Snapshots uint64 `json:"snapshots"`
}

// Store is the handle to a durable state directory: it owns the current
// WAL append handle and writes snapshot rotations. Methods are safe for
// concurrent use; callers above (adindex.Index) already serialize
// mutations, but Sync and Stats may arrive from other goroutines.
type Store struct {
	opts Options
	dir  string

	mu      sync.Mutex
	gen     uint64
	wal     *walWriter
	pending int // records since last snapshot (replayed + appended)
	stats   StoreStats
	closed  bool
}

// recoveryPlan is the outcome of the read-only recovery analysis: the
// recovered state plus the disk mutations Open must apply to make the
// directory consistent with it.
type recoveryPlan struct {
	state *RecoveredState

	removeTmps  []string // crash debris, always safe to delete
	truncWAL    string   // torn WAL to truncate ("" = none)
	truncTo     int64
	truncBytes  int64    // the bytes truncWAL loses
	removeNewer []string // WALs/snapshots past the replay stop point
	appendGen   uint64   // generation whose WAL receives new appends
	appendBytes int64    // valid bytes already in that WAL
}

// planRecovery analyzes the directory WITHOUT modifying it. A missing
// directory plans a fresh store.
func planRecovery(fsys FS, dir string) (*recoveryPlan, error) {
	snaps, wals, tmps, err := listGens(fsys, dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &recoveryPlan{state: &RecoveredState{Report: RecoveryReport{Fresh: true}}}, nil
		}
		return nil, fmt.Errorf("durable: list %s: %w", dir, err)
	}
	plan := &recoveryPlan{removeTmps: tmps}
	state := &RecoveredState{}
	plan.state = state
	state.Report.Fresh = len(snaps) == 0 && len(wals) == 0

	// Pick the newest snapshot generation that verifies; generation 0 is
	// the implicit empty snapshot of a store that never rotated.
	baseGen := uint64(0)
	loaded := false
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshot(fsys, dir, snaps[i])
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) || errors.Is(err, fs.ErrNotExist) {
				state.Report.SnapshotsSkipped++
				state.Report.SkipReasons = append(state.Report.SkipReasons, err.Error())
				continue
			}
			return nil, err
		}
		state.Ads, state.Mapping, state.Epoch = st.Ads, st.Mapping, st.Epoch
		baseGen, loaded = snaps[i], true
		break
	}
	if !loaded {
		if len(snaps) > 0 {
			// Every snapshot generation failed verification: serving an
			// empty index in place of a large corpus must be an explicit
			// operator decision (wipe the directory), not a silent default.
			return nil, fmt.Errorf("durable: %s: no snapshot generation verified (%d tried): %v",
				dir, len(snaps), state.Report.SkipReasons)
		}
		baseGen = 0
	}
	state.Report.SnapshotGen = baseGen
	state.Report.SnapshotAds = len(state.Ads)
	state.Report.SnapshotEpoch = state.Epoch

	// Replay the WAL chain: wal-baseGen, then every newer WAL in order.
	// Each wal-G holds the mutations between snapshot G and snapshot
	// G+1, so chaining from an older fallback snapshot still reaches the
	// latest state. The chain stops at the first bad frame: later
	// records (and whole later files) assume state the damaged region
	// was part of, so they are dropped, not skipped over.
	chain := make([]uint64, 0, len(wals)+1)
	for _, g := range wals {
		if g >= baseGen {
			chain = append(chain, g)
		}
	}
	hasWAL := func(g uint64) bool {
		for _, w := range chain {
			if w == g {
				return true
			}
		}
		return false
	}
	stopGen := uint64(0)
	stopValid := int64(0)
	stopped := false
	validByGen := map[uint64]int64{}
	for ci, g := range chain {
		scan, err := readWAL(fsys, dir, g)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		validByGen[g] = scan.validBytes
		state.Report.WALFiles++
		if !stopped {
			state.Records = append(state.Records, scan.records...)
			state.Report.RecordsReplayed += len(scan.records)
		} else {
			state.Report.DroppedWALFiles++
			state.Report.DroppedBytes += scan.totalBytes
			continue
		}
		if scan.class != CorruptNone {
			state.Report.Torn = true
			if scan.class == CorruptWALRecord {
				state.Report.CorruptRecords = true
			}
			if state.Report.TornDetail == "" {
				state.Report.TornDetail = fmt.Sprintf("%s: %s (%s)", walName(g), scan.detail, scan.class)
			}
			state.Report.DroppedBytes += scan.totalBytes - scan.validBytes
			stopped, stopGen, stopValid = true, g, scan.validBytes
			plan.truncBytes = scan.totalBytes - scan.validBytes
			if ci < len(chain)-1 {
				state.Report.NeedsRotation = true
			}
		}
	}
	if state.Report.SnapshotsSkipped > 0 {
		state.Report.NeedsRotation = true
	}

	// Plan the mutations that make the on-disk chain consistent with
	// what was recovered: truncate the torn WAL to its valid prefix and
	// drop files newer than the stop point (their content assumed the
	// dropped region).
	appendGen := baseGen
	if len(chain) > 0 {
		appendGen = chain[len(chain)-1]
	}
	if stopped {
		plan.truncWAL = walName(stopGen)
		plan.truncTo = stopValid
		for _, g := range chain {
			if g > stopGen {
				plan.removeNewer = append(plan.removeNewer, walName(g))
			}
		}
		for _, g := range snaps {
			if g > stopGen {
				// Newer snapshots exist only if they failed verification
				// (otherwise one of them would be the base).
				plan.removeNewer = append(plan.removeNewer, snapName(g))
			}
		}
		appendGen = stopGen
	}
	if !hasWAL(appendGen) && !state.Report.Fresh {
		// Crash window between snapshot rename and WAL creation: the WAL
		// for the current generation never got created. An empty one is
		// exactly equivalent.
		state.Report.WALFiles++
	}
	plan.appendGen = appendGen
	plan.appendBytes = validByGen[appendGen]
	return plan, nil
}

// Plan runs the recovery analysis read-only: it reports exactly what
// Open would recover (and lose) from dir without modifying anything —
// no tail truncation, no file removal, no WAL creation. Callers that
// refuse degraded recoveries (cmd/adserve without
// -allow-partial-recovery) preflight with Plan so the refusal leaves
// the evidence on disk for adfsck and stays in force across restarts.
// A nil fsys selects the OS filesystem.
func Plan(fsys FS, dir string) (*RecoveryReport, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	plan, err := planRecovery(fsys, dir)
	if err != nil {
		return nil, err
	}
	report := plan.state.Report
	return &report, nil
}

// applyPlan makes the directory what recovery under plan leaves: leftover
// temp files removed, the WAL the replay stopped in truncated to its valid
// prefix, and the WALs and snapshots past that point removed (their
// content assumed the dropped region). Open applies it before appending;
// Repair applies it alone, so a repaired directory is the one recovery
// would leave.
func applyPlan(fsys FS, dir string, plan *recoveryPlan) (*RepairResult, error) {
	res := &RepairResult{}
	// Temp files are debris from a crash mid-snapshot-write; they were
	// never current, so removal is always safe, and one that stays is
	// harmless.
	for _, tmp := range plan.removeTmps {
		if fsys.Remove(filepath.Join(dir, tmp)) == nil {
			res.RemovedTmp = append(res.RemovedTmp, tmp)
		}
	}
	if plan.truncWAL != "" {
		if err := fsys.Truncate(filepath.Join(dir, plan.truncWAL), plan.truncTo); err != nil {
			return res, fmt.Errorf("durable: truncate torn %s: %w", plan.truncWAL, err)
		}
		res.TruncatedWALs = append(res.TruncatedWALs, plan.truncWAL)
		res.TruncatedBytes += plan.truncBytes
		for _, name := range plan.removeNewer {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return res, fmt.Errorf("durable: remove %s past the replay stop: %w", name, err)
			}
			res.Removed = append(res.Removed, name)
		}
	}
	if len(res.RemovedTmp) > 0 || plan.truncWAL != "" {
		if err := fsys.SyncDir(dir); err != nil {
			return res, fmt.Errorf("durable: sync dir %s: %w", dir, err)
		}
	}
	return res, nil
}

// Open opens (or initializes) the durable state directory and recovers
// its contents: the newest verifiable snapshot plus the WAL chain on top
// of it, tolerating a torn tail. It never returns partial state with a
// nil error — everything in RecoveredState was verified by checksum.
func Open(dir string, opts Options) (*Store, *RecoveredState, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: mkdir %s: %w", dir, err)
	}
	plan, err := planRecovery(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	state := plan.state
	// Apply the planned mutations before any new appends land.
	if _, err := applyPlan(fsys, dir, plan); err != nil {
		return nil, nil, err
	}

	f, err := fsys.OpenAppend(filepath.Join(dir, walName(plan.appendGen)))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open wal %s: %w", walName(plan.appendGen), err)
	}
	st := &Store{
		opts: opts,
		dir:  dir,
		gen:  plan.appendGen,
		wal:  &walWriter{f: f, mode: opts.Sync, bytes: plan.appendBytes},
	}
	st.pending = state.Report.RecordsReplayed
	return st, state, nil
}

// LogInsert appends an insert record; under SyncAlways it is on disk
// when LogInsert returns.
func (s *Store) LogInsert(ad corpus.Ad) error {
	return s.log(&Record{Op: OpInsert, Ad: ad})
}

// LogDelete appends a delete record.
func (s *Store) LogDelete(id uint64, phrase string) error {
	return s.log(&Record{Op: OpDelete, ID: id, Phrase: phrase})
}

func (s *Store) log(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store is closed")
	}
	if err := s.wal.append(rec); err != nil {
		return err
	}
	s.stats.Records++
	if s.opts.Sync == SyncAlways {
		s.stats.Syncs++
	}
	s.pending++
	return nil
}

// Sync forces the WAL to stable storage (used by graceful shutdown and
// by SyncNone callers that batch their own flush points).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.wal == nil {
		return nil
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	s.stats.Syncs++
	return nil
}

// WriteSnapshot writes the full state as a new generation and rotates
// the WAL: the snapshot lands atomically (tmp + fsync + rename + dir
// fsync), a fresh empty WAL is created for the new generation, and
// generations older than the last keepGens are deleted. On return, recovery
// will never need the records logged before this call.
//
// The caller must guarantee no concurrent Log* calls (adindex holds its
// writer mutex across the capture and this write), or rotated records
// could miss both the snapshot and the surviving WAL.
func (s *Store) WriteSnapshot(ads []corpus.Ad, mapping map[string][]string, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store is closed")
	}
	fsys := s.opts.FS
	newGen := s.gen + 1
	if err := writeSnapshot(fsys, s.dir, newGen, ads, mapping, epoch); err != nil {
		return err
	}
	// The new snapshot is durably current; the old WAL handle is
	// superseded regardless of what happens to it now.
	if s.wal != nil {
		s.wal.close()
	}
	f, err := fsys.OpenAppend(filepath.Join(s.dir, walName(newGen)))
	if err != nil {
		return fmt.Errorf("durable: create wal %s: %w", walName(newGen), err)
	}
	if err := fsys.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync dir %s: %w", s.dir, err)
	}
	s.wal = &walWriter{f: f, mode: s.opts.Sync}
	s.gen = newGen
	s.pending = 0
	s.stats.Snapshots++
	// Retire generations beyond the keep window. Failure to delete old
	// files never compromises the new generation; ignore errors.
	if newGen+1 >= keepGens {
		cutoff := newGen + 1 - keepGens
		snaps, wals, _, err := listGens(fsys, s.dir)
		if err == nil {
			for _, g := range snaps {
				if g < cutoff {
					fsys.Remove(filepath.Join(s.dir, snapName(g)))
				}
			}
			for _, g := range wals {
				if g < cutoff {
					fsys.Remove(filepath.Join(s.dir, walName(g)))
				}
			}
		}
	}
	return nil
}

// RecordsSinceSnapshot returns the WAL records accumulated since the
// last snapshot (replayed at open plus appended since).
func (s *Store) RecordsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Stats returns live persistence counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Gen = s.gen
	st.RecordsSinceSnapshot = s.pending
	if s.wal != nil {
		st.WALBytes = s.wal.bytes
	}
	return st
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}

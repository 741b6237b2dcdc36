package durable

import (
	"errors"
	"fmt"
	"io/fs"
)

// FsckFile is the verification result for one on-disk artifact.
type FsckFile struct {
	Name  string     `json:"name"`
	Gen   uint64     `json:"gen"`
	Class Corruption `json:"-"`
	// Status is Class.String(), for JSON output.
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
	// Ads is the ad count (snapshots only).
	Ads int `json:"ads,omitempty"`
	// Epoch is the recorded mutation epoch (snapshots only).
	Epoch uint64 `json:"epoch,omitempty"`
	// Records is the valid record count (WALs only).
	Records int `json:"records,omitempty"`
	// ValidBytes / TotalBytes describe the valid frame prefix (WALs only);
	// repair truncates to ValidBytes.
	ValidBytes int64 `json:"valid_bytes,omitempty"`
	TotalBytes int64 `json:"total_bytes,omitempty"`
}

// FsckReport is the full verification result for a state directory.
type FsckReport struct {
	Dir       string     `json:"dir"`
	Snapshots []FsckFile `json:"snapshots"`
	WALs      []FsckFile `json:"wals"`
	// TmpFiles are leftover temp files from an interrupted snapshot write
	// (harmless; repair removes them).
	TmpFiles []string `json:"tmp_files,omitempty"`
	// Empty reports a directory with no durable state at all.
	Empty bool `json:"empty"`
}

// Worst returns the highest-priority problem in the directory: the
// newest snapshot's corruption first (it is what recovery would want to
// load), otherwise the newest problematic WAL's. CorruptNone means the
// directory is fully consistent.
func (r *FsckReport) Worst() (Corruption, string) {
	for i := len(r.Snapshots) - 1; i >= 0; i-- {
		if f := r.Snapshots[i]; f.Class != CorruptNone {
			return f.Class, fmt.Sprintf("%s: %s", f.Name, f.Detail)
		}
	}
	for i := len(r.WALs) - 1; i >= 0; i-- {
		if f := r.WALs[i]; f.Class != CorruptNone {
			return f.Class, fmt.Sprintf("%s: %s", f.Name, f.Detail)
		}
	}
	return CorruptNone, ""
}

// Fsck verifies every snapshot and WAL in dir without modifying
// anything. The returned report is complete even when artifacts are
// corrupt; only I/O errors (unreadable directory) fail the call.
func Fsck(fsys FS, dir string) (*FsckReport, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	snaps, wals, tmps, err := listGens(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("durable: fsck %s: %w", dir, err)
	}
	rep := &FsckReport{Dir: dir, TmpFiles: tmps, Empty: len(snaps) == 0 && len(wals) == 0 && len(tmps) == 0}
	for _, g := range snaps {
		f := FsckFile{Name: snapName(g), Gen: g}
		st, err := loadSnapshot(fsys, dir, g)
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				f.Class, f.Detail = ce.Class, ce.Detail
			} else if errors.Is(err, fs.ErrNotExist) {
				continue
			} else {
				return nil, err
			}
		} else {
			f.Ads, f.Epoch = len(st.Ads), st.Epoch
		}
		f.Status = f.Class.String()
		rep.Snapshots = append(rep.Snapshots, f)
	}
	for _, g := range wals {
		f := FsckFile{Name: walName(g), Gen: g}
		scan, err := readWAL(fsys, dir, g)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		f.Class, f.Detail = scan.class, scan.detail
		f.Records = len(scan.records)
		f.ValidBytes, f.TotalBytes = scan.validBytes, scan.totalBytes
		f.Status = f.Class.String()
		rep.WALs = append(rep.WALs, f)
	}
	return rep, nil
}

// RepairResult describes what Repair changed.
type RepairResult struct {
	// TruncatedWALs lists WALs cut back to their valid frame prefix.
	TruncatedWALs []string `json:"truncated_wals,omitempty"`
	// TruncatedBytes is the total tail bytes removed.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Removed lists the WALs and snapshots past the point where replay
	// stops: recovery would drop them, since they assume the lost region.
	Removed []string `json:"removed,omitempty"`
	// RemovedTmp lists deleted leftover temp files.
	RemovedTmp []string `json:"removed_tmp,omitempty"`
}

// Repair makes the disk changes recovery would make — those of Open, and
// of adserve -allow-partial-recovery — without opening a store: it
// removes leftover temp files, truncates the WAL the replay stops in to
// its last valid frame, and removes the WALs and snapshots after that
// point. A repaired directory therefore recovers exactly what it would
// have recovered unrepaired. Like recovery, Repair refuses a directory
// where no snapshot generation verifies, and it leaves alone a corrupt
// snapshot that recovery skips in favour of an older generation.
func Repair(fsys FS, dir string) (*RepairResult, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	plan, err := planRecovery(fsys, dir)
	if err != nil {
		return nil, err
	}
	return applyPlan(fsys, dir, plan)
}

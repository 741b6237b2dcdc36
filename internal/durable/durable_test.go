package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adindex/internal/corpus"
)

func testAds(n int, seed int64) []corpus.Ad {
	return corpus.Generate(corpus.GenOptions{NumAds: n, Seed: seed}).Ads
}

func testMapping() map[string][]string {
	return map[string][]string{
		"cheap\x1fflights":          {"flights"},
		"cheap\x1fflights\x1fparis": {"flights", "paris"},
	}
}

func openStore(t *testing.T, dir string) (*Store, *RecoveredState) {
	t.Helper()
	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rec
}

// corruptFile flips one byte of name at offset off (negative = from end).
func corruptFile(t *testing.T, dir, name string, off int) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

func appendBytes(t *testing.T, dir, name string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatalf("append %s: %v", name, err)
	}
	f.Close()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ads := testAds(200, 1)
	mapping := testMapping()
	if err := writeSnapshot(OSFS{}, dir, 7, ads, mapping, 4242); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	st, err := loadSnapshot(OSFS{}, dir, 7)
	if err != nil {
		t.Fatalf("loadSnapshot: %v", err)
	}
	if st.Gen != 7 || st.Epoch != 4242 {
		t.Fatalf("gen/epoch = %d/%d, want 7/4242", st.Gen, st.Epoch)
	}
	if !reflect.DeepEqual(st.Ads, ads) {
		t.Fatalf("ads did not round-trip (got %d, want %d)", len(st.Ads), len(ads))
	}
	if !reflect.DeepEqual(st.Mapping, mapping) {
		t.Fatalf("mapping did not round-trip: %v", st.Mapping)
	}
	if _, _, tmps, _ := listGens(OSFS{}, dir); len(tmps) != 0 {
		t.Fatalf("leftover tmp files: %v", tmps)
	}
}

func TestSnapshotCorruptionClasses(t *testing.T) {
	ads := testAds(50, 2)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    Corruption
	}{
		{"bad-magic", func(t *testing.T, dir string) { corruptFile(t, dir, snapName(1), 0) }, CorruptHeader},
		{"bad-header-crc", func(t *testing.T, dir string) { corruptFile(t, dir, snapName(1), 13) }, CorruptHeader},
		{"bad-section-payload", func(t *testing.T, dir string) { corruptFile(t, dir, snapName(1), snapHeaderLen+sectionHdrLen+3) }, CorruptSectionCRC},
		{"truncated", func(t *testing.T, dir string) {
			path := filepath.Join(dir, snapName(1))
			fi, _ := os.Stat(path)
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, CorruptSnapTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeSnapshot(OSFS{}, dir, 1, ads, testMapping(), 50); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)
			_, err := loadSnapshot(OSFS{}, dir, 1)
			ce, ok := err.(*CorruptError)
			if !ok {
				t.Fatalf("err = %v, want *CorruptError", err)
			}
			if ce.Class != tc.want {
				t.Fatalf("class = %s, want %s (%s)", ce.Class, tc.want, ce.Detail)
			}
		})
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := openStore(t, dir)
	if !rec.Report.Fresh {
		t.Fatal("fresh dir not reported Fresh")
	}
	ads := testAds(20, 3)
	for _, ad := range ads {
		if err := st.LogInsert(ad); err != nil {
			t.Fatalf("LogInsert: %v", err)
		}
	}
	if err := st.LogDelete(ads[4].ID, ads[4].Phrase); err != nil {
		t.Fatalf("LogDelete: %v", err)
	}
	st.Close()

	_, rec2 := openStore(t, dir)
	if got := len(rec2.Records); got != len(ads)+1 {
		t.Fatalf("recovered %d records, want %d", got, len(ads)+1)
	}
	for i, ad := range ads {
		r := rec2.Records[i]
		if r.Op != OpInsert || !reflect.DeepEqual(r.Ad, ad) {
			t.Fatalf("record %d did not round-trip: %+v", i, r)
		}
	}
	last := rec2.Records[len(ads)]
	if last.Op != OpDelete || last.ID != ads[4].ID || last.Phrase != ads[4].Phrase {
		t.Fatalf("delete record did not round-trip: %+v", last)
	}
	if rec2.Report.Torn || rec2.Report.Degraded() {
		t.Fatalf("clean reopen reported torn/degraded: %+v", rec2.Report)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(10, 4)
	for _, ad := range ads {
		if err := st.LogInsert(ad); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// A torn final write: a frame header promising more bytes than exist.
	appendBytes(t, dir, walName(0), []byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3})

	_, rec := openStore(t, dir)
	if len(rec.Records) != len(ads) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(ads))
	}
	if !rec.Report.Torn || rec.Report.DroppedBytes != 7 {
		t.Fatalf("report = %+v, want Torn with 7 dropped bytes", rec.Report)
	}
	// A torn tail is the normal crash artifact: the incomplete frame was
	// never acknowledged, so recovery is NOT degraded.
	if rec.Report.Degraded() || rec.Report.CorruptRecords {
		t.Fatalf("plain torn tail must not report Degraded: %+v", rec.Report)
	}
	// The torn tail must be truncated away so the next reopen is clean.
	_, rec2 := openStore(t, dir)
	if rec2.Report.Torn || rec2.Report.DroppedBytes != 0 {
		t.Fatalf("tail not truncated: %+v", rec2.Report)
	}
	if len(rec2.Records) != len(ads) {
		t.Fatalf("post-truncate recovered %d records, want %d", len(rec2.Records), len(ads))
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(10, 5)
	for _, ad := range ads {
		if err := st.LogInsert(ad); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// Flip a bit inside the 6th record's payload: records 1-5 survive,
	// everything from the flipped record on is dropped.
	data, err := os.ReadFile(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	scan := scanWAL(data)
	if len(scan.records) != 10 {
		t.Fatalf("precondition: %d records", len(scan.records))
	}
	// Walk frame headers to locate the 6th frame's payload.
	off := int64(0)
	for i := 0; i < 5; i++ {
		plen := int64(data[off]) | int64(data[off+1])<<8 | int64(data[off+2])<<16 | int64(data[off+3])<<24
		off += walFrameHdrLen + plen
	}
	corruptFile(t, dir, walName(0), int(off)+walFrameHdrLen+2)

	_, rec := openStore(t, dir)
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	if !rec.Report.Torn || rec.Report.DroppedBytes == 0 {
		t.Fatalf("report = %+v, want torn with dropped bytes", rec.Report)
	}
	// Unlike a torn tail, a corrupt complete frame lost acknowledged
	// records: this IS degraded.
	if !rec.Report.CorruptRecords || !rec.Report.Degraded() {
		t.Fatalf("corrupt record must report Degraded: %+v", rec.Report)
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(30, 6)
	for _, ad := range ads[:10] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:10], nil, 10); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if st.RecordsSinceSnapshot() != 0 {
		t.Fatal("rotation did not reset pending count")
	}
	for _, ad := range ads[10:20] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:20], nil, 20); err != nil {
		t.Fatal(err)
	}
	for _, ad := range ads[20:] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads, testMapping(), 30); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Gen != 3 || stats.Snapshots != 3 || stats.Records != 30 {
		t.Fatalf("stats = %+v", stats)
	}
	st.Close()

	snaps, wals, _, err := listGens(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, []uint64{2, 3}) {
		t.Fatalf("retained snapshots %v, want [2 3]", snaps)
	}
	if !reflect.DeepEqual(wals, []uint64{2, 3}) {
		t.Fatalf("retained wals %v, want [2 3]", wals)
	}

	_, rec := openStore(t, dir)
	if rec.Report.SnapshotGen != 3 || len(rec.Ads) != 30 || rec.Epoch != 30 {
		t.Fatalf("recovered gen %d with %d ads epoch %d", rec.Report.SnapshotGen, len(rec.Ads), rec.Epoch)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d WAL records, want 0 after rotation", len(rec.Records))
	}
	if !reflect.DeepEqual(rec.Mapping, testMapping()) {
		t.Fatalf("mapping lost across rotation: %v", rec.Mapping)
	}
}

func TestGenerationFallback(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(30, 7)
	for _, ad := range ads[:10] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:10], nil, 10); err != nil { // gen 1
		t.Fatal(err)
	}
	for _, ad := range ads[10:20] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:20], nil, 20); err != nil { // gen 2
		t.Fatal(err)
	}
	for _, ad := range ads[20:] {
		st.LogInsert(ad) // lands in wal-2
	}
	st.Close()
	// Corrupt the newest snapshot: recovery must fall back to gen 1 and
	// still reach the latest state by replaying wal-1 then wal-2.
	corruptFile(t, dir, snapName(2), 0)

	_, rec := openStore(t, dir)
	if rec.Report.SnapshotGen != 1 {
		t.Fatalf("fell back to gen %d, want 1", rec.Report.SnapshotGen)
	}
	if rec.Report.SnapshotsSkipped != 1 || !rec.Report.Degraded() || !rec.Report.NeedsRotation {
		t.Fatalf("report = %+v, want skipped=1 degraded needs-rotation", rec.Report)
	}
	if len(rec.Ads) != 10 {
		t.Fatalf("snapshot ads = %d, want 10", len(rec.Ads))
	}
	// wal-1 has inserts 10..19, wal-2 has inserts 20..29.
	if len(rec.Records) != 20 {
		t.Fatalf("replayed %d records, want 20", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Ad.ID != ads[10+i].ID {
			t.Fatalf("record %d is ad %d, want %d", i, r.Ad.ID, ads[10+i].ID)
		}
	}
}

// midChainDir returns a state directory whose replay stops mid-chain:
// snapshots 1 and 2 with ten inserts in each of wal-1 and wal-2, then the
// newest snapshot corrupted AND the first record of wal-1. Recovery falls
// back to snapshot 1 and must drop wal-2 wholesale (its records assume
// state that includes the damaged region).
func midChainDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(30, 8)
	for _, ad := range ads[:10] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:10], nil, 10); err != nil { // gen 1
		t.Fatal(err)
	}
	for _, ad := range ads[10:20] {
		st.LogInsert(ad) // wal-1
	}
	if err := st.WriteSnapshot(ads[:20], nil, 20); err != nil { // gen 2
		t.Fatal(err)
	}
	for _, ad := range ads[20:] {
		st.LogInsert(ad) // wal-2
	}
	st.Close()
	corruptFile(t, dir, snapName(2), 0)
	corruptFile(t, dir, walName(1), 20) // inside first record's payload
	return dir
}

func TestMidChainCorruptionDropsNewerFiles(t *testing.T) {
	dir := midChainDir(t)
	_, rec := openStore(t, dir)
	if rec.Report.SnapshotGen != 1 || len(rec.Ads) != 10 {
		t.Fatalf("base = gen %d / %d ads, want 1 / 10", rec.Report.SnapshotGen, len(rec.Ads))
	}
	if len(rec.Records) != 0 {
		t.Fatalf("replayed %d records, want 0 (first wal-1 record is corrupt)", len(rec.Records))
	}
	if rec.Report.DroppedWALFiles != 1 || !rec.Report.NeedsRotation {
		t.Fatalf("report = %+v, want 1 dropped wal file + needs-rotation", rec.Report)
	}
	// The damaged newer files must be gone so appends do not interleave
	// with stale state.
	if _, err := os.Stat(filepath.Join(dir, walName(2))); !os.IsNotExist(err) {
		t.Fatal("wal-2 not removed after mid-chain stop")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
		t.Fatal("corrupt snap-2 not removed after mid-chain stop")
	}
}

// Repair leaves the directory recovery would leave: after a mid-chain
// stop it removes what Open removes, so the repaired directory recovers
// exactly the state the unrepaired one does, and not wal-2's records on a
// base that lacks wal-1's.
func TestRepairLeavesWhatRecoveryLeaves(t *testing.T) {
	repaired, opened := midChainDir(t), t.TempDir()
	entries, err := os.ReadDir(repaired)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(repaired, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(opened, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := Plan(nil, repaired)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repair(nil, repaired)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !reflect.DeepEqual(res.TruncatedWALs, []string{walName(1)}) ||
		!reflect.DeepEqual(res.Removed, []string{walName(2), snapName(2)}) {
		t.Fatalf("repair = %+v, want wal-1 truncated, wal-2 and snap-2 removed", res)
	}
	after, err := Plan(nil, repaired)
	if err != nil {
		t.Fatal(err)
	}
	if after.RecordsReplayed != before.RecordsReplayed {
		t.Fatalf("repair changed what replays: %d records before, %d after",
			before.RecordsReplayed, after.RecordsReplayed)
	}

	_, want := openStore(t, opened)
	_, got := openStore(t, repaired)
	if !reflect.DeepEqual(got.Ads, want.Ads) || !reflect.DeepEqual(got.Records, want.Records) || got.Epoch != want.Epoch {
		t.Fatalf("repaired directory recovers %d ads + %d records at epoch %d, unrepaired %d + %d at %d",
			len(got.Ads), len(got.Records), got.Epoch, len(want.Ads), len(want.Records), want.Epoch)
	}
	if a, b := dirListing(t, repaired), dirListing(t, opened); !reflect.DeepEqual(a, b) {
		t.Fatalf("repaired then opened %v, opened %v", a, b)
	}
}

// dirListing maps each file in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

func TestAllSnapshotsCorruptRefusesEmpty(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(10, 9)
	for _, ad := range ads {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads, nil, 10); err != nil {
		t.Fatal(err)
	}
	st.Close()
	corruptFile(t, dir, snapName(1), 0)

	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded with every snapshot corrupt; must refuse rather than serve empty")
	}
}

func TestCrashBetweenRenameAndWALCreate(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(10, 10)
	for _, ad := range ads {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads, nil, 10); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate the crash window: snapshot renamed, wal never created.
	if err := os.Remove(filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	st2, rec := openStore(t, dir)
	if rec.Report.Degraded() || len(rec.Ads) != 10 || len(rec.Records) != 0 {
		t.Fatalf("recovery = %+v / %d ads / %d records", rec.Report, len(rec.Ads), len(rec.Records))
	}
	// Appends must land in a freshly created wal-1.
	if err := st2.LogInsert(ads[0]); err != nil {
		t.Fatalf("LogInsert after missing-wal recovery: %v", err)
	}
	st2.Close()
	_, rec2 := openStore(t, dir)
	if len(rec2.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec2.Records))
	}
}

func TestFsckAndRepair(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(20, 11)
	for _, ad := range ads[:10] {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads[:10], nil, 10); err != nil {
		t.Fatal(err)
	}
	for _, ad := range ads[10:] {
		st.LogInsert(ad)
	}
	st.Close()

	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if c, _ := rep.Worst(); c != CorruptNone {
		t.Fatalf("clean dir reported %s", c)
	}
	if len(rep.Snapshots) != 1 || rep.Snapshots[0].Ads != 10 {
		t.Fatalf("snapshots = %+v", rep.Snapshots)
	}
	if len(rep.WALs) != 2 || rep.WALs[1].Records != 10 {
		t.Fatalf("wals = %+v", rep.WALs)
	}

	// Tear the newest WAL and drop a stray tmp file; repair must fix both.
	appendBytes(t, dir, walName(1), []byte{9, 9, 9})
	os.WriteFile(filepath.Join(dir, snapName(2)+tmpSuffix), []byte("junk"), 0o644)

	rep, err = Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := rep.Worst(); c != CorruptWALTorn {
		t.Fatalf("worst = %s, want %s", c, CorruptWALTorn)
	}
	res, err := Repair(nil, dir)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(res.TruncatedWALs) != 1 || res.TruncatedBytes != 3 || len(res.RemovedTmp) != 1 {
		t.Fatalf("repair = %+v", res)
	}
	rep, err = Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c, d := rep.Worst(); c != CorruptNone {
		t.Fatalf("post-repair worst = %s (%s)", c, d)
	}
	_, rec := openStore(t, dir)
	if rec.Report.Degraded() || len(rec.Records) != 10 {
		t.Fatalf("post-repair recovery = %+v / %d records", rec.Report, len(rec.Records))
	}
}

func TestFsckWorstPrefersNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	ads := testAds(10, 12)
	st, _ := openStore(t, dir)
	for _, ad := range ads {
		st.LogInsert(ad)
	}
	if err := st.WriteSnapshot(ads, nil, 10); err != nil {
		t.Fatal(err)
	}
	st.Close()
	corruptFile(t, dir, snapName(1), 0)
	appendBytes(t, dir, walName(1), []byte{1, 2})

	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := rep.Worst(); c != CorruptHeader {
		t.Fatalf("worst = %s, want %s (snapshot problems take priority)", c, CorruptHeader)
	}
}

// TestPlanIsReadOnly pins the preflight contract: Plan reports exactly
// what Open would recover — including degradation — while leaving every
// byte of the directory untouched, so a caller can refuse to proceed
// with the evidence still on disk.
func TestPlanIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	ads := testAds(10, 44)
	for _, ad := range ads {
		if err := st.LogInsert(ad); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	corruptFile(t, dir, walName(0), 12) // corrupt a complete record
	os.WriteFile(filepath.Join(dir, "snap-0000000000000009.snap.tmp"), []byte("x"), 0o644)

	before := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, _ := e.Info()
		before[e.Name()] = fi.Size()
	}

	report, err := Plan(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Torn || !report.CorruptRecords || !report.Degraded() {
		t.Fatalf("plan report = %+v, want degraded corrupt-record recovery", report)
	}

	after := map[string]int64{}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, _ := e.Info()
		after[e.Name()] = fi.Size()
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("Plan modified the directory:\nbefore %v\nafter  %v", before, after)
	}

	// Open on the same directory reports the same degradation, and only
	// Open performs the truncation.
	_, rec := openStore(t, dir)
	if rec.Report.Degraded() != report.Degraded() || rec.Report.DroppedBytes != report.DroppedBytes {
		t.Fatalf("Open report %+v disagrees with Plan report %+v", rec.Report, report)
	}
	fi, err := os.Stat(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("Open left %d bytes in the corrupt WAL, want truncation to 0", fi.Size())
	}
}

// TestPlanMissingDir: planning a directory that does not exist is a
// fresh store, not an error (Open would create it).
func TestPlanMissingDir(t *testing.T) {
	report, err := Plan(nil, filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Fresh || report.Degraded() {
		t.Fatalf("missing dir plan = %+v, want fresh", report)
	}
}

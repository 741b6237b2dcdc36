package adindex

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The crash stress test runs deterministic index churn in a child
// process, SIGKILLs it mid-flight, corrupts the WAL tail the way a torn
// write would, and then recovers in-process — asserting the recovered
// state is exactly the serial oracle state after some op prefix that
// covers every acknowledged op. Under SyncAlways every op is fsync'd
// before its ack line is printed, so nothing acknowledged may be lost.

const (
	crashChurnSteps   = 600
	crashChurnSeed    = 99
	crashOptimizeStep = 137
	crashKillAfterAck = 200
)

// crashOp is one logical mutation of the churn schedule.
type crashOp struct {
	insert bool
	idx    int // index into the generated ad slice
}

// crashSchedule is the deterministic op sequence both the child and the
// oracle follow: step i inserts ads[i]; every 7th step also deletes the
// ad inserted three steps earlier. opsThroughStep[i] is the number of
// flat ops completed once step i is acknowledged.
func crashSchedule() (ops []crashOp, opsThroughStep []int) {
	for i := 0; i < crashChurnSteps; i++ {
		ops = append(ops, crashOp{insert: true, idx: i})
		if i%7 == 6 {
			ops = append(ops, crashOp{insert: false, idx: i - 3})
		}
		opsThroughStep = append(opsThroughStep, len(ops))
	}
	return ops, opsThroughStep
}

// TestCrashChild is the child half of TestCrashRecoveryStress; it only
// runs when re-executed with the state directory in the environment.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("ADINDEX_CRASH_DIR")
	if dir == "" {
		t.Skip("helper for TestCrashRecoveryStress; runs only in the child process")
	}
	// A tiny SnapshotEvery forces several WAL rotations during the churn,
	// so the kill can land around generation boundaries too.
	ix, _, err := OpenDurable(dir, Options{MaxDeltaAds: 32}, DurableConfig{SnapshotEvery: 100})
	if err != nil {
		fmt.Println("child open error:", err)
		os.Exit(3)
	}
	ads := GenerateAds(crashChurnSteps, crashChurnSeed)
	ops, opsThroughStep := crashSchedule()
	next := 0
	for i := 0; i < crashChurnSteps; i++ {
		for ; next < opsThroughStep[i]; next++ {
			op := ops[next]
			if op.insert {
				ix.Insert(ads[op.idx])
			} else {
				ix.Delete(ads[op.idx].ID, ads[op.idx].Phrase)
			}
			if err := ix.PersistErr(); err != nil {
				fmt.Println("child persist error:", err)
				os.Exit(3)
			}
		}
		ix.BroadMatch(ads[i].Phrase)
		if i == crashOptimizeStep {
			if _, err := ix.Optimize(); err != nil {
				fmt.Println("child optimize error:", err)
				os.Exit(3)
			}
		}
		// The ack contract: everything through step i is fsync'd (the ops
		// above ran under SyncAlways) before this line appears.
		fmt.Println("ack", i)
	}
	fmt.Println("done")
}

func TestCrashRecoveryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.timeout=120s")
	cmd.Env = append(os.Environ(), "ADINDEX_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	lastAck := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "ack "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			lastAck = n
			if lastAck+1 >= crashKillAfterAck {
				break
			}
		} else if line == "done" {
			t.Fatal("child finished before the kill; raise crashChurnSteps")
		} else if strings.Contains(line, "error") {
			t.Fatalf("child reported: %s", line)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to be a kill error; the exit status is irrelevant
	if lastAck < crashKillAfterAck-1 {
		t.Fatalf("child died after only %d acks", lastAck+1)
	}

	// Tear the WAL tail the way a crashed write would: a frame header
	// promising more bytes than exist.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files in %s (err=%v)", dir, err)
	}
	sort.Strings(wals)
	f, err := os.OpenFile(wals[len(wals)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x00, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recover and compare against the serial oracle.
	ix, report, err := OpenDurable(dir, Options{}, DurableConfig{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer ix.Close()
	if !report.Torn || report.DroppedBytes == 0 {
		t.Fatalf("expected a torn tail in the report, got %+v", report)
	}

	recovered := map[uint64]bool{}
	for _, ad := range ix.Ads() {
		recovered[ad.ID] = true
	}

	ads := GenerateAds(crashChurnSteps, crashChurnSeed)
	ops, opsThroughStep := crashSchedule()
	minOps := opsThroughStep[lastAck]
	oracle := map[uint64]bool{}
	matchedPrefix := -1
	if len(recovered) == 0 {
		matchedPrefix = 0
	}
	for n := 1; n <= len(ops); n++ {
		op := ops[n-1]
		if op.insert {
			oracle[ads[op.idx].ID] = true
		} else {
			delete(oracle, ads[op.idx].ID)
		}
		if len(oracle) != len(recovered) {
			continue
		}
		same := true
		for id := range oracle {
			if !recovered[id] {
				same = false
				break
			}
		}
		if same {
			matchedPrefix = n
			break
		}
	}
	if matchedPrefix < 0 {
		t.Fatalf("recovered state (%d ads) matches no serial op prefix", len(recovered))
	}
	if matchedPrefix < minOps {
		t.Fatalf("recovered state matches op prefix %d, but %d ops were acknowledged before the kill — acked data lost",
			matchedPrefix, minOps)
	}
	t.Logf("killed after ack %d (%d ops), recovered exactly op prefix %d; report: gen %d, %d replayed, torn=%v",
		lastAck, minOps, matchedPrefix, report.SnapshotGen, report.RecordsReplayed, report.Torn)

	// Query-level equivalence: the recovered index must answer like an
	// in-memory index built by the same op prefix (placement may differ
	// after the child's Optimize; result sets may not).
	mem := New(Options{})
	for _, op := range ops[:matchedPrefix] {
		if op.insert {
			mem.Insert(ads[op.idx])
		} else {
			mem.Delete(ads[op.idx].ID, ads[op.idx].Phrase)
		}
	}
	for i := 0; i < crashChurnSteps; i += 17 {
		q := ads[i].Phrase
		got := idSet(ix.BroadMatch(q))
		want := idSet(mem.BroadMatch(q))
		if len(got) != len(want) {
			t.Fatalf("BroadMatch(%q): recovered %d ads, oracle %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("BroadMatch(%q): recovered index missing ad %d", q, id)
			}
		}
	}
}

func idSet(ads []Ad) map[uint64]bool {
	s := make(map[uint64]bool, len(ads))
	for _, ad := range ads {
		s[ad.ID] = true
	}
	return s
}

package adindex

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"adindex/internal/durable"
)

// TestDurableRoundTrip covers the basic OpenDurable contract: a fresh
// directory, logged mutations, and a reopen that lands exactly where the
// previous process left off — including the epoch, which recovery
// reproduces by replaying the WAL through the real mutation path.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ads := GenerateAds(50, 7)

	ix, report, err := OpenDurable(dir, Options{}, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Fresh {
		t.Fatalf("fresh dir reported as not fresh: %+v", report)
	}
	for _, ad := range ads {
		ix.Insert(ad)
	}
	ix.Delete(ads[3].ID, ads[3].Phrase)
	ix.Delete(9999, "no such ad") // not-found deletes are logged too (epoch exactness)
	wantAds := ix.NumAds()
	wantEpoch := ix.snap.Load().epoch
	if err := ix.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, report2, err := OpenDurable(dir, Options{}, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if report2.Fresh || report2.Degraded() {
		t.Fatalf("reopen report: %+v", report2)
	}
	if got := ix2.NumAds(); got != wantAds {
		t.Fatalf("recovered %d ads, want %d", got, wantAds)
	}
	if got := ix2.snap.Load().epoch; got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if res := ix2.BroadMatch(ads[3].Phrase); idSet(res)[ads[3].ID] {
		t.Fatal("deleted ad came back after recovery")
	}
}

// TestOptimizeMappingSurvivesRestart pins the regression the snapshot
// mapping section exists for: an optimized placement must survive a
// restart identically — same node count, same word-set-to-node mapping —
// not silently degrade to default placement (which would keep results
// correct but undo the cost optimization).
func TestOptimizeMappingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ads := GenerateAds(400, 21)

	ix, _, err := OpenDurable(dir, Options{}, DurableConfig{
		Sync:          durable.SyncAlways,
		SnapshotEvery: -1, // only Optimize writes the snapshot below
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range ads {
		ix.Insert(ad)
	}
	for i := 0; i < len(ads); i += 3 {
		ix.Observe(ads[i].Phrase)
	}
	report, err := ix.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Applied {
		t.Fatalf("optimize not applied: %+v", report)
	}
	if report.NodesAfter >= report.NodesBefore {
		t.Fatalf("optimize merged nothing (%d -> %d); workload too thin for the test",
			report.NodesBefore, report.NodesAfter)
	}
	wantMapping := ix.snap.Load().base.Mapping()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, rep2, err := OpenDurable(dir, Options{}, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if rep2.Degraded() {
		t.Fatalf("reopen degraded: %+v", rep2)
	}
	if got := ix2.Stats().NumNodes; got != report.NodesAfter {
		t.Fatalf("recovered index has %d nodes, optimize reported %d — placement not preserved",
			got, report.NodesAfter)
	}
	gotMapping := ix2.snap.Load().base.Mapping()
	if !reflect.DeepEqual(gotMapping, wantMapping) {
		t.Fatalf("recovered mapping differs from pre-restart optimized mapping (%d vs %d entries)",
			len(gotMapping), len(wantMapping))
	}
	// And the optimized layout still answers queries identically.
	for i := 0; i < len(ads); i += 37 {
		got := idSet(ix2.BroadMatch(ads[i].Phrase))
		want := idSet(ix.BroadMatch(ads[i].Phrase)) // old handle still serves reads
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BroadMatch(%q) differs after restart", ads[i].Phrase)
		}
	}
}

// TestBootstrapSnapshotBytes: a corpus in strictly increasing ID order is
// written as the first generation as it stands, without capturing and
// sorting the base's ads; the file is byte for byte the one the capture
// writes, which a shuffled corpus, and one with a repeated ID, still take.
func TestBootstrapSnapshotBytes(t *testing.T) {
	firstGeneration := func(bootstrap []Ad) []byte {
		t.Helper()
		dir := t.TempDir()
		ix, report, err := OpenDurable(dir, Options{MaxWords: 3}, DurableConfig{Bootstrap: bootstrap})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if !report.Fresh || ix.NumAds() != len(bootstrap) || ix.BuildSeconds() <= 0 {
			t.Fatalf("bootstrap of %d ads: report %+v, %d ads, built in %v s", len(bootstrap), report, ix.NumAds(), ix.BuildSeconds())
		}
		data, err := os.ReadFile(filepath.Join(dir, "snap-0000000000000001.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ads := GenerateAds(400, 11)
	ordered := firstGeneration(ads)
	shuffled := slices.Clone(ads)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if !bytes.Equal(firstGeneration(shuffled), ordered) {
		t.Error("the first generation of an ordered corpus differs from the one captured from the base")
	}
	// A repeated ID is not strictly increasing: captured, and recoverable.
	repeated := append(slices.Clone(ads), ads[len(ads)-1])
	if bytes.Equal(firstGeneration(repeated), ordered) {
		t.Error("a corpus with one more ad wrote the same first generation")
	}
}

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/optimize"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// TestAdoptEndToEnd runs the binary over a corpus file and a workload file
// written as adgen -queries-out writes one, and holds the mapping file it
// writes to what its consumers need: optimize.ReadMapping and
// core.NewWithMapping accept it, it models no worse than the default
// placement, and -compression-ratio shifts the optimum toward fewer nodes
// (TestCompressionRatioShiftsOptimum).
func TestAdoptEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "adopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 33})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 1500, Seed: 34})
	var corpusFile, workloadFile bytes.Buffer
	if err := c.Write(&corpusFile); err != nil {
		t.Fatal(err)
	}
	if err := wl.Write(&workloadFile); err != nil {
		t.Fatal(err)
	}
	corpusPath := filepath.Join(dir, "corpus.tsv")
	workloadPath := filepath.Join(dir, "workload.tsv")
	for path, buf := range map[string]*bytes.Buffer{corpusPath: &corpusFile, workloadPath: &workloadFile} {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exported, err := workload.Read(&workloadFile)
	if err != nil {
		t.Fatal(err)
	}
	gs := optimize.BuildGroups(c.Ads, exported)

	// run returns the mapping adopt writes at the given compression ratio
	// and the number of nodes it produces.
	run := func(ratio string) (map[string][]string, int) {
		out := filepath.Join(dir, "mapping-"+ratio+".tsv")
		cmd := exec.Command(bin, "-corpus", corpusPath, "-workload", workloadPath,
			"-compression-ratio", ratio, "-out", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("adopt -compression-ratio %s: %v\n%s", ratio, err, msg)
		}
		mf, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		mapping, err := optimize.ReadMapping(mf)
		if err != nil {
			t.Fatalf("ReadMapping refuses adopt's output: %v", err)
		}
		if len(mapping) != len(gs.All) {
			t.Fatalf("mapping covers %d word sets, corpus has %d", len(mapping), len(gs.All))
		}
		if _, err := core.NewWithMapping(c.Ads, mapping, core.Options{}); err != nil {
			t.Fatalf("NewWithMapping refuses adopt's output: %v", err)
		}
		locs := make(map[string]struct{})
		for _, loc := range mapping {
			locs[textnorm.SetKey(loc)] = struct{}{}
		}
		return mapping, len(locs)
	}

	plain, plainNodes := run("1")
	_, compressedNodes := run("0.4")
	id := optimize.IdentityMapping(gs, optimize.Options{})
	if cost := optimize.EvaluateMapping(gs, plain, optimize.Options{}); cost > id.ModeledCost {
		t.Errorf("adopt's mapping models %.0f, above identity's %.0f", cost, id.ModeledCost)
	}
	if plainNodes >= id.Nodes {
		t.Errorf("adopt's mapping has %d nodes, identity %d: nothing was merged", plainNodes, id.Nodes)
	}
	if compressedNodes > plainNodes {
		t.Errorf("-compression-ratio 0.4 grew nodes: %d vs %d", compressedNodes, plainNodes)
	}
}

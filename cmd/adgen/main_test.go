package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"adindex/internal/corpus"
)

// TestAdgenCorpus runs the built binary: the corpus it writes is one
// corpus.Read accepts with the requested number of ads, and the same seed
// writes the same bytes.
func TestAdgenCorpus(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "adgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	gen := func(name, seed string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if out, err := exec.Command(bin, "-ads", "1500", "-seed", seed, "-out", path).CombinedOutput(); err != nil {
			t.Fatalf("adgen -seed %s: %v\n%s", seed, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := gen("a.tsv", "7")
	c, err := corpus.Read(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("corpus.Read refuses adgen's output: %v", err)
	}
	if c.NumAds() != 1500 {
		t.Errorf("adgen -ads 1500 wrote %d ads", c.NumAds())
	}
	if again := gen("b.tsv", "7"); !bytes.Equal(first, again) {
		t.Error("the same seed wrote different corpora")
	}
	if other := gen("c.tsv", "8"); bytes.Equal(first, other) {
		t.Error("seeds 7 and 8 wrote the same corpus")
	}
}

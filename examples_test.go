package adindex_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds the four programs under examples/ and runs each
// on a small input: every one must exit 0.
func TestExamplesRun(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, args := range map[string][]string{
		"quickstart":     nil,
		"workloadtuning": nil,
		"sharded":        {"-ads", "2000", "-shards", "3"},
		"adserver":       {"-ads", "2000", "-demo", "-addr", "127.0.0.1:0"},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(dir, name), args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", name, args, err, out)
			}
			if len(out) == 0 {
				t.Errorf("%s %v printed nothing", name, args)
			}
		})
	}
}
